#include "validate/fuzz.hpp"

#include <gtest/gtest.h>

namespace fhp {
namespace {

using validate::FuzzOptions;
using validate::FuzzStats;

TEST(Fuzz, SmokeRunFindsNoViolations) {
  FuzzOptions options;
  options.instances_per_generator = 25;
  const FuzzStats stats = validate::run_fuzz(options);
  EXPECT_TRUE(stats.ok()) << stats.to_string();
  EXPECT_EQ(stats.instances,
            25U * validate::fuzz_generator_names().size());
  EXPECT_GT(stats.parsed, 0U);
  EXPECT_GT(stats.partitioned, 0U);
  // Every partitioned instance also runs the default engine path.
  EXPECT_EQ(stats.engine_partitioned, stats.partitioned);
  EXPECT_GT(stats.round_trips, 0U);
  // Mutations must actually exercise the rejection paths.
  EXPECT_GT(stats.mutated, 0U);
  EXPECT_GT(stats.rejected, 0U);
}

TEST(Fuzz, DeterministicAcrossRuns) {
  FuzzOptions options;
  options.instances_per_generator = 10;
  options.seed = 42;
  const FuzzStats a = validate::run_fuzz(options);
  const FuzzStats b = validate::run_fuzz(options);
  EXPECT_EQ(a.to_string(), b.to_string());
}

TEST(Fuzz, GeneratorFilterRunsOneFamily) {
  FuzzOptions options;
  options.instances_per_generator = 8;
  options.only_generator = "grid";
  const FuzzStats stats = validate::run_fuzz(options);
  EXPECT_TRUE(stats.ok()) << stats.to_string();
  EXPECT_EQ(stats.instances, 8U);
}

TEST(Fuzz, SingleInstanceReplay) {
  FuzzOptions options;
  options.instances_per_generator = 20;
  options.only_generator = "random";
  options.only_instance = 7;
  const FuzzStats stats = validate::run_fuzz(options);
  EXPECT_TRUE(stats.ok()) << stats.to_string();
  EXPECT_EQ(stats.instances, 1U);
}

TEST(Fuzz, UnmutatedRunRoundTripsEverything) {
  FuzzOptions options;
  options.instances_per_generator = 10;
  options.mutate_probability = 0.0;
  const FuzzStats stats = validate::run_fuzz(options);
  EXPECT_TRUE(stats.ok()) << stats.to_string();
  EXPECT_EQ(stats.mutated, 0U);
  EXPECT_EQ(stats.rejected, 0U);
}

}  // namespace
}  // namespace fhp

// Differential tests: every FM entry point on the shared gain engine
// against the legacy heap-and-stash engine (tests/support/legacy_fm.*).
// The gain engine promises to select exactly the move the legacy engine
// selected, so partitions, metrics, pass counts and fm/* counters must be
// bit-identical.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "baselines/fm.hpp"
#include "gen/circuit.hpp"
#include "multilevel/engine.hpp"
#include "multilevel/refine.hpp"
#include "obs/counters.hpp"
#include "support/legacy_fm.hpp"
#include "support/zoo.hpp"
#include "util/rng.hpp"

namespace fhp {
namespace {

/// The fm/* counters one run produced.
struct FmCounters {
  long long runs = 0;
  long long moves = 0;
  long long rolled_back = 0;
  long long passes = 0;
  bool operator==(const FmCounters&) const = default;
};

/// Runs \p fn with the counter registry cleared and returns its result
/// plus the fm/* counters it left behind.
template <class Fn>
auto with_counters(Fn&& fn) {
  obs::Counters& registry = obs::Counters::instance();
  registry.reset();
  auto result = fn();
  const FmCounters counters{registry.value("fm/runs"),
                            registry.value("fm/moves"),
                            registry.value("fm/moves_rolled_back"),
                            registry.value("fm/passes")};
  registry.reset();
  return std::make_pair(std::move(result), counters);
}

void expect_same_metrics(const PartitionMetrics& a, const PartitionMetrics& b,
                         const std::string& where) {
  EXPECT_EQ(a.cut_edges, b.cut_edges) << where;
  EXPECT_EQ(a.cut_weight, b.cut_weight) << where;
  EXPECT_EQ(a.left_count, b.left_count) << where;
  EXPECT_EQ(a.right_count, b.right_count) << where;
  EXPECT_EQ(a.left_weight, b.left_weight) << where;
  EXPECT_EQ(a.right_weight, b.right_weight) << where;
  EXPECT_EQ(a.weight_imbalance, b.weight_imbalance) << where;
  EXPECT_EQ(a.quotient_cut, b.quotient_cut) << where;
  EXPECT_EQ(a.ratio_cut, b.ratio_cut) << where;
  EXPECT_EQ(a.proper, b.proper) << where;
}

/// A random fixed mask fixing about a quarter of the modules.
std::vector<std::uint8_t> random_mask(VertexId n, Rng& rng) {
  std::vector<std::uint8_t> fixed(n, 0);
  for (auto& f : fixed) f = rng.next_bool(0.25) ? 1 : 0;
  return fixed;
}

TEST(FmDifferential, MatchesLegacyEngineAcrossTheOptionMatrix) {
  const auto instances = test::generator_zoo();
  std::size_t runs = 0;
  for (const auto& [name, h] : instances) {
    Rng rng(static_cast<std::uint64_t>(h.num_vertices()) * 31 +
            h.num_edges());
    const Weight total = h.total_vertex_weight();
    for (const Weight tolerance : {Weight{0}, Weight{1}, total / 4}) {
      for (const int max_passes : {1, 4, 32}) {
        for (const bool use_mask : {false, true}) {
          FmOptions options;
          options.seed = rng();
          options.max_passes = max_passes;
          options.max_weight_imbalance = tolerance;
          if (use_mask) {
            // Fixed modules keep their `initial` side, so pin one.
            options.initial = random_bisection(h, rng()).sides;
            options.fixed = random_mask(h.num_vertices(), rng);
          }
          const std::string where = name + " tol " +
                                    std::to_string(tolerance) + " passes " +
                                    std::to_string(max_passes) + " mask " +
                                    std::to_string(use_mask);
          const auto [now, now_counters] =
              with_counters([&] { return fiduccia_mattheyses(h, options); });
          const auto [old, old_counters] = with_counters(
              [&] { return test::legacy_fiduccia_mattheyses(h, options); });
          ASSERT_EQ(now.sides, old.sides) << where;
          EXPECT_EQ(now.iterations, old.iterations) << where;
          EXPECT_EQ(now_counters, old_counters) << where;
          expect_same_metrics(now.metrics, old.metrics, where);
          ++runs;
        }
      }
    }
  }
  EXPECT_EQ(runs, instances.size() * 3 * 3 * 2);
}

TEST(FmDifferential, RefinerMatchesLegacyInBoundaryAndWholeInstanceMode) {
  for (const auto& [name, h] : test::generator_zoo()) {
    Rng rng(static_cast<std::uint64_t>(h.num_edges()) * 17 + 3);
    for (const bool boundary : {true, false}) {
      for (const int max_passes : {1, 4, 32}) {
        ml::FmRefinerOptions options;
        options.boundary_only = boundary;
        options.full_fm_threshold = 0;  // boundary mode at every size
        options.max_passes = max_passes;
        const std::vector<std::uint8_t> start =
            random_bisection(h, rng()).sides;
        const std::uint64_t seed = rng();
        const std::string where = name + " boundary " +
                                  std::to_string(boundary) + " passes " +
                                  std::to_string(max_passes);
        std::vector<std::uint8_t> now_sides = start;
        std::vector<std::uint8_t> old_sides = start;
        const auto [now_gain, now_counters] = with_counters([&] {
          ml::FmRefiner refiner(options);
          return refiner.refine(h, now_sides, seed);
        });
        const auto [old_gain, old_counters] = with_counters([&] {
          test::LegacyFmRefiner refiner(options);
          return refiner.refine(h, old_sides, seed);
        });
        ASSERT_EQ(now_sides, old_sides) << where;
        EXPECT_EQ(now_gain, old_gain) << where;
        EXPECT_EQ(now_counters, old_counters) << where;
      }
    }
  }
}

TEST(FmDifferential, PartitionAutoMatchesLegacyOnFmAndFlowFm) {
  std::vector<std::pair<std::string, Hypergraph>> instances;
  instances.emplace_back(
      "stdcell-900",
      generate_circuit(table2_params(900, 1300, Technology::kStandardCell),
                       21));
  CircuitParams weighted = table2_params(2300, 3400, Technology::kStandardCell);
  weighted.weight_geometric_p = 0.4;
  instances.emplace_back("stdcell-2300-weighted",
                         generate_circuit(weighted, 31));
  instances.emplace_back(
      "gatearray-2500",
      generate_circuit(table2_params(2500, 3300, Technology::kGateArray), 5));
  for (const auto& [name, h] : instances) {
    for (const ml::RefinerChoice refiner :
         {ml::RefinerChoice::kFm, ml::RefinerChoice::kFlowFm}) {
      for (const ml::EngineChoice engine :
           {ml::EngineChoice::kFlat, ml::EngineChoice::kMultilevel}) {
        ml::PartitionPlan plan;
        plan.engine = engine;
        plan.refiner = refiner;
        plan.algorithm1.num_starts = 8;
        plan.algorithm1.threads = 1;
        const std::string where = name + " " + ml::to_string(refiner) + " " +
                                  ml::to_string(engine);
        const auto [now, now_counters] =
            with_counters([&] { return ml::partition_auto(h, plan); });
        const auto [old, old_counters] =
            with_counters([&] { return test::legacy_partition_auto(h, plan); });
        ASSERT_EQ(now.sides, old.sides) << where;
        EXPECT_EQ(now.levels, old.levels) << where;
        EXPECT_EQ(now_counters, old_counters) << where;
        expect_same_metrics(now.metrics, old.metrics, where);
        if (FHP_TRACING_ENABLED && engine == ml::EngineChoice::kMultilevel) {
          EXPECT_GT(now_counters.moves, 0) << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace fhp

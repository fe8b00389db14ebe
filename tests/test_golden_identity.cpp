/// \file test_golden_identity.cpp
/// Bit-identity regression gate for the hot-path optimization work.
///
/// The golden rows below were captured from the seed pipeline and
/// regenerated ONCE when the BFS `farthest` tie-break changed to
/// "smallest vertex id at maximum distance" (the direction-optimizing
/// kernel rewrite — see graph/bfs.hpp; only rows whose pseudo-diameter
/// election was genuinely tied moved, and grid9x9 is bit-for-bit
/// unchanged): an FNV-1a hash of the module-side vector plus
/// the cut for every cell of the options matrix
///   instance x completion x initial-cut x large-net threshold
/// at num_starts = 8, seed = 11. The optimized pipeline must reproduce
/// every hash exactly — at thread counts 1, 2 and 8, with memoization on
/// and off. Any intentional change to partition semantics must regenerate
/// this table and say so in the commit.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/algorithm1.hpp"
#include "graph/bfs.hpp"
#include "gen/circuit.hpp"
#include "gen/grid.hpp"
#include "gen/planted.hpp"

namespace fhp {
namespace {

/// FNV-1a over the side bytes: order-sensitive, so equal hashes mean the
/// exact same side assignment, not merely the same cut value.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint8_t b : v) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

struct GoldenRow {
  const char* instance;
  int completion;   ///< index into kCompletions
  int initial_cut;  ///< index into kCuts
  std::uint32_t threshold;
  std::uint64_t sides_hash;
  std::uint32_t cut;
};

constexpr CompletionStrategy kCompletions[] = {
    CompletionStrategy::kGreedy, CompletionStrategy::kWeightedGreedy,
    CompletionStrategy::kExact};
constexpr InitialCutStrategy kCuts[] = {InitialCutStrategy::kBidirectionalBfs,
                                        InitialCutStrategy::kLevelSweep};

// Captured from the current pipeline (see file comment for the one
// regeneration). 3 instances x 3 completions x 2 initial cuts x 3
// thresholds = 54 rows.
constexpr GoldenRow kGolden[] = {
    {"circuit150", 0, 0, 0U, 0xd14be278a35c76ebULL, 10U},
    {"circuit150", 0, 0, 6U, 0x4ea8e2e107f16073ULL, 24U},
    {"circuit150", 0, 0, 10U, 0x4ea8e2e107f16073ULL, 24U},
    {"circuit150", 0, 1, 0U, 0xb2b0b20109a7b216ULL, 0U},
    {"circuit150", 0, 1, 6U, 0x4d564b57cc2406bcULL, 9U},
    {"circuit150", 0, 1, 10U, 0x886940a6a11150c1ULL, 8U},
    {"circuit150", 1, 0, 0U, 0xf305f02bdaa562f7ULL, 24U},
    {"circuit150", 1, 0, 6U, 0x8f3557925962132aULL, 24U},
    {"circuit150", 1, 0, 10U, 0x8f3557925962132aULL, 24U},
    {"circuit150", 1, 1, 0U, 0x6edc28e48475315eULL, 52U},
    {"circuit150", 1, 1, 6U, 0x589d884ca80e1a00ULL, 13U},
    {"circuit150", 1, 1, 10U, 0x589d884ca80e1a00ULL, 13U},
    {"circuit150", 2, 0, 0U, 0xd14be278a35c76ebULL, 10U},
    {"circuit150", 2, 0, 6U, 0xb72bce16e5beb3cdULL, 24U},
    {"circuit150", 2, 0, 10U, 0xb72bce16e5beb3cdULL, 24U},
    {"circuit150", 2, 1, 0U, 0xb2b0b20109a7b216ULL, 0U},
    {"circuit150", 2, 1, 6U, 0x0fe678d42a66bcaeULL, 10U},
    {"circuit150", 2, 1, 10U, 0x44a671348f133d14ULL, 8U},
    {"planted120", 0, 0, 0U, 0x3226c69b1dffb955ULL, 4U},
    {"planted120", 0, 0, 6U, 0x3226c69b1dffb955ULL, 4U},
    {"planted120", 0, 0, 10U, 0x3226c69b1dffb955ULL, 4U},
    {"planted120", 0, 1, 0U, 0xb3d6878ad4e48cfeULL, 5U},
    {"planted120", 0, 1, 6U, 0xb3d6878ad4e48cfeULL, 5U},
    {"planted120", 0, 1, 10U, 0xb3d6878ad4e48cfeULL, 5U},
    {"planted120", 1, 0, 0U, 0xbecc04a2b9e80109ULL, 9U},
    {"planted120", 1, 0, 6U, 0xbecc04a2b9e80109ULL, 9U},
    {"planted120", 1, 0, 10U, 0xbecc04a2b9e80109ULL, 9U},
    {"planted120", 1, 1, 0U, 0x168d9369ad591b45ULL, 5U},
    {"planted120", 1, 1, 6U, 0x168d9369ad591b45ULL, 5U},
    {"planted120", 1, 1, 10U, 0x168d9369ad591b45ULL, 5U},
    {"planted120", 2, 0, 0U, 0x3226c69b1dffb955ULL, 4U},
    {"planted120", 2, 0, 6U, 0x3226c69b1dffb955ULL, 4U},
    {"planted120", 2, 0, 10U, 0x3226c69b1dffb955ULL, 4U},
    {"planted120", 2, 1, 0U, 0xb3d6878ad4e48cfeULL, 5U},
    {"planted120", 2, 1, 6U, 0xb3d6878ad4e48cfeULL, 5U},
    {"planted120", 2, 1, 10U, 0xb3d6878ad4e48cfeULL, 5U},
    {"grid9x9", 0, 0, 0U, 0x6780c9f0620f980eULL, 18U},
    {"grid9x9", 0, 0, 6U, 0x6780c9f0620f980eULL, 18U},
    {"grid9x9", 0, 0, 10U, 0x6780c9f0620f980eULL, 18U},
    {"grid9x9", 0, 1, 0U, 0x9c1ad0029185ffbdULL, 13U},
    {"grid9x9", 0, 1, 6U, 0x9c1ad0029185ffbdULL, 13U},
    {"grid9x9", 0, 1, 10U, 0x9c1ad0029185ffbdULL, 13U},
    {"grid9x9", 1, 0, 0U, 0x065c9f5c59910ffdULL, 19U},
    {"grid9x9", 1, 0, 6U, 0x065c9f5c59910ffdULL, 19U},
    {"grid9x9", 1, 0, 10U, 0x065c9f5c59910ffdULL, 19U},
    {"grid9x9", 1, 1, 0U, 0x8cbc807d108edbcfULL, 14U},
    {"grid9x9", 1, 1, 6U, 0x8cbc807d108edbcfULL, 14U},
    {"grid9x9", 1, 1, 10U, 0x8cbc807d108edbcfULL, 14U},
    {"grid9x9", 2, 0, 0U, 0x05c1e1e4014492a4ULL, 16U},
    {"grid9x9", 2, 0, 6U, 0x05c1e1e4014492a4ULL, 16U},
    {"grid9x9", 2, 0, 10U, 0x05c1e1e4014492a4ULL, 16U},
    {"grid9x9", 2, 1, 0U, 0x8cbc807d108edbcfULL, 14U},
    {"grid9x9", 2, 1, 6U, 0x8cbc807d108edbcfULL, 14U},
    {"grid9x9", 2, 1, 10U, 0x8cbc807d108edbcfULL, 14U},
};

Hypergraph golden_instance(const char* name) {
  const std::string n = name;
  if (n == "circuit150") {
    return generate_circuit(table2_params(150, 260, Technology::kStandardCell),
                            7);
  }
  if (n == "planted120") {
    PlantedParams p;
    p.num_vertices = 120;
    p.num_edges = 200;
    p.planted_cut = 4;
    p.min_edge_size = 2;
    p.max_edge_size = 2;
    p.max_degree = 0;
    return planted_instance(p, 5).hypergraph;
  }
  EXPECT_STREQ(name, "grid9x9");
  return grid_circuit({9, 9, 0.3, false}, 3);
}

class GoldenIdentity : public ::testing::TestWithParam<int> {};

TEST_P(GoldenIdentity, MatchesPrePrPartitionsAcrossOptionsMatrix) {
  const int threads = GetParam();
  const char* current = "";
  Hypergraph h;
  for (const GoldenRow& row : kGolden) {
    if (std::string(current) != row.instance) {
      current = row.instance;
      h = golden_instance(row.instance);
    }
    for (const bool memoize : {true, false}) {
      for (const bool reorder : {true, false}) {
        Algorithm1Options options;
        options.completion = kCompletions[row.completion];
        options.initial_cut = kCuts[row.initial_cut];
        options.large_edge_threshold = row.threshold;
        options.num_starts = 8;
        options.seed = 11;
        options.threads = threads;
        options.memoize_starts = memoize;
        options.reorder = reorder;
        const Algorithm1Result result = algorithm1(h, options);
        EXPECT_EQ(fnv1a(result.sides), row.sides_hash)
            << row.instance << " completion=" << row.completion
            << " cut=" << row.initial_cut << " threshold=" << row.threshold
            << " threads=" << threads << " memoize=" << memoize
            << " reorder=" << reorder;
        EXPECT_EQ(result.metrics.cut_edges, row.cut)
            << row.instance << " completion=" << row.completion
            << " cut=" << row.initial_cut << " threshold=" << row.threshold
            << " threads=" << threads << " memoize=" << memoize
            << " reorder=" << reorder;
      }
    }
  }
}

// The pseudo-diameter search at sweep counts other than the default 2,
// captured from the pre-split pipeline (one full longest_path_from per
// start, memoization and reordering off) at greedy completion,
// num_starts = 8, seed = 11. Sweeps 1 never reaches the endpoint memo;
// 3 and 4 exercise the convergence break after it.
struct SweepGoldenRow {
  const char* instance;
  int sweeps;
  int initial_cut;  ///< index into kCuts
  std::uint32_t threshold;
  std::uint64_t sides_hash;
  std::uint32_t cut;
};

constexpr SweepGoldenRow kSweepGolden[] = {
    {"circuit150", 1, 0, 0U, 0xe5a4533d3ba3c60dULL, 10U},
    {"circuit150", 1, 0, 10U, 0xf292834e658ff1e8ULL, 23U},
    {"circuit150", 1, 1, 0U, 0xb2b0b20109a7b216ULL, 0U},
    {"circuit150", 1, 1, 10U, 0x886940a6a11150c1ULL, 8U},
    {"circuit150", 3, 0, 0U, 0xd14be278a35c76ebULL, 10U},
    {"circuit150", 3, 0, 10U, 0x39328b4b23a702f2ULL, 32U},
    {"circuit150", 3, 1, 0U, 0xb2b0b20109a7b216ULL, 0U},
    {"circuit150", 3, 1, 10U, 0x886940a6a11150c1ULL, 8U},
    {"circuit150", 4, 0, 0U, 0xd14be278a35c76ebULL, 10U},
    {"circuit150", 4, 0, 10U, 0x39328b4b23a702f2ULL, 32U},
    {"circuit150", 4, 1, 0U, 0xb2b0b20109a7b216ULL, 0U},
    {"circuit150", 4, 1, 10U, 0x886940a6a11150c1ULL, 8U},
    {"planted120", 1, 0, 0U, 0x0c19aaf8ed3a8f91ULL, 4U},
    {"planted120", 1, 0, 10U, 0x0c19aaf8ed3a8f91ULL, 4U},
    {"planted120", 1, 1, 0U, 0x73e90de788294bbaULL, 10U},
    {"planted120", 1, 1, 10U, 0x73e90de788294bbaULL, 10U},
    {"planted120", 3, 0, 0U, 0x3226c69b1dffb955ULL, 4U},
    {"planted120", 3, 0, 10U, 0x3226c69b1dffb955ULL, 4U},
    {"planted120", 3, 1, 0U, 0xb3d6878ad4e48cfeULL, 5U},
    {"planted120", 3, 1, 10U, 0xb3d6878ad4e48cfeULL, 5U},
    {"planted120", 4, 0, 0U, 0x3226c69b1dffb955ULL, 4U},
    {"planted120", 4, 0, 10U, 0x3226c69b1dffb955ULL, 4U},
    {"planted120", 4, 1, 0U, 0xb3d6878ad4e48cfeULL, 5U},
    {"planted120", 4, 1, 10U, 0xb3d6878ad4e48cfeULL, 5U},
    {"grid9x9", 1, 0, 0U, 0xa3002f4566b48dc7ULL, 14U},
    {"grid9x9", 1, 0, 10U, 0xa3002f4566b48dc7ULL, 14U},
    {"grid9x9", 1, 1, 0U, 0xcea02cf4d4028f34ULL, 12U},
    {"grid9x9", 1, 1, 10U, 0xcea02cf4d4028f34ULL, 12U},
    {"grid9x9", 3, 0, 0U, 0x6780c9f0620f980eULL, 18U},
    {"grid9x9", 3, 0, 10U, 0x6780c9f0620f980eULL, 18U},
    {"grid9x9", 3, 1, 0U, 0x9c1ad0029185ffbdULL, 13U},
    {"grid9x9", 3, 1, 10U, 0x9c1ad0029185ffbdULL, 13U},
    {"grid9x9", 4, 0, 0U, 0x6780c9f0620f980eULL, 18U},
    {"grid9x9", 4, 0, 10U, 0x6780c9f0620f980eULL, 18U},
    {"grid9x9", 4, 1, 0U, 0x9c1ad0029185ffbdULL, 13U},
    {"grid9x9", 4, 1, 10U, 0x9c1ad0029185ffbdULL, 13U},
};

TEST_P(GoldenIdentity, MatchesPreSplitPartitionsAcrossSweepCounts) {
  const int threads = GetParam();
  const char* current = "";
  Hypergraph h;
  for (const SweepGoldenRow& row : kSweepGolden) {
    if (std::string(current) != row.instance) {
      current = row.instance;
      h = golden_instance(row.instance);
    }
    for (const bool memoize : {true, false}) {
      for (const bool reorder : {true, false}) {
        Algorithm1Options options;
        options.initial_cut = kCuts[row.initial_cut];
        options.large_edge_threshold = row.threshold;
        options.bfs_sweeps = row.sweeps;
        options.num_starts = 8;
        options.seed = 11;
        options.threads = threads;
        options.memoize_starts = memoize;
        options.reorder = reorder;
        const Algorithm1Result result = algorithm1(h, options);
        EXPECT_EQ(fnv1a(result.sides), row.sides_hash)
            << row.instance << " sweeps=" << row.sweeps
            << " cut=" << row.initial_cut << " threshold=" << row.threshold
            << " threads=" << threads << " memoize=" << memoize
            << " reorder=" << reorder;
        EXPECT_EQ(result.metrics.cut_edges, row.cut)
            << row.instance << " sweeps=" << row.sweeps
            << " cut=" << row.initial_cut << " threshold=" << row.threshold
            << " threads=" << threads << " memoize=" << memoize
            << " reorder=" << reorder;
      }
    }
  }
}

// Two-phase pair finding (first sweeps, then the rest once per distinct
// first-sweep endpoint) returns, start by start, what one full
// longest_path_from per start returns on the unpermuted graph.
TEST_P(GoldenIdentity, TwoPhasePairsEqualPerStartLongestPaths) {
  const int threads = GetParam();
  for (const char* instance : {"circuit150", "planted120", "grid9x9"}) {
    const Hypergraph h = golden_instance(instance);
    for (const int sweeps : {1, 2, 3, 4}) {
      for (const bool reorder : {true, false}) {
        Algorithm1Options options;
        options.bfs_sweeps = sweeps;
        options.reorder = reorder;
        options.threads = threads;
        options.large_edge_threshold = 0;
        const Algorithm1Context context(h, options);
        ASSERT_FALSE(context.is_degenerate()) << instance;
        const Graph& g = context.intersection();
        // Every G-vertex, twice, in a scrambled order: repeated starts and
        // repeated endpoints both occur.
        std::vector<VertexId> starts;
        for (VertexId round = 0; round < 2; ++round) {
          for (VertexId i = 0; i < g.num_vertices(); ++i) {
            starts.push_back((i * 7 + round) % g.num_vertices());
          }
        }
        const std::vector<DiameterPair> pairs =
            context.find_pairs(starts, context.make_lane_scratch());
        ASSERT_EQ(pairs.size(), starts.size());
        for (std::size_t i = 0; i < starts.size(); ++i) {
          const DiameterPair want = longest_path_from(g, starts[i], sweeps);
          ASSERT_EQ(pairs[i].s, want.s)
              << instance << " sweeps=" << sweeps << " reorder=" << reorder
              << " start=" << starts[i];
          ASSERT_EQ(pairs[i].t, want.t)
              << instance << " sweeps=" << sweeps << " reorder=" << reorder
              << " start=" << starts[i];
          ASSERT_EQ(pairs[i].distance, want.distance)
              << instance << " sweeps=" << sweeps << " reorder=" << reorder
              << " start=" << starts[i];
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, GoldenIdentity, ::testing::Values(1, 2, 8));

}  // namespace
}  // namespace fhp

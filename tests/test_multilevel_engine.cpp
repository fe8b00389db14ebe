/// \file test_multilevel_engine.cpp
/// The multilevel engine (src/multilevel/): coarsener correctness and
/// bit-identity across thread counts, hierarchy projection, the Refiner
/// contract, engine quality, and partition_auto engine selection.
///
/// The determinism matrix mirrors test_golden_identity.cpp: on the golden
/// instances the engine's partition must be bit-identical across threads
/// {1, 2, 8} x reorder on/off x memoize_starts on/off — the coarsener's
/// parallel rating loop and Algorithm I both promise thread-invariance,
/// so any drift here is a regression in one of them.
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/circuit.hpp"
#include "gen/grid.hpp"
#include "gen/planted.hpp"
#include "multilevel/coarsen.hpp"
#include "multilevel/engine.hpp"
#include "multilevel/hierarchy.hpp"
#include "multilevel/refine.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"
#include "validate/audit.hpp"

namespace fhp {
namespace {

std::uint64_t fnv1a(const std::vector<std::uint8_t>& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint8_t b : v) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

Hypergraph golden_instance(const std::string& name) {
  if (name == "circuit150") {
    return generate_circuit(table2_params(150, 260, Technology::kStandardCell),
                            7);
  }
  if (name == "planted120") {
    PlantedParams p;
    p.num_vertices = 120;
    p.num_edges = 200;
    p.planted_cut = 4;
    p.min_edge_size = 2;
    p.max_edge_size = 2;
    p.max_degree = 0;
    return planted_instance(p, 5).hypergraph;
  }
  EXPECT_EQ(name, "grid9x9");
  return grid_circuit({9, 9, 0.3, false}, 3);
}

const char* const kGoldenInstances[] = {"circuit150", "planted120", "grid9x9"};

// ---------------------------------------------------------------------------
// Coarsener

TEST(MultilevelCoarsen, ClusteringIsAPartitionWithinTheWeightCap) {
  for (const char* name : kGoldenInstances) {
    const Hypergraph h = golden_instance(name);
    ml::CoarseningOptions options;
    const ml::ClusteringResult r =
        ml::heavy_edge_clustering(h, {}, options);
    ASSERT_EQ(r.cluster.size(), h.num_vertices()) << name;
    ASSERT_GE(r.num_clusters, 1U) << name;
    Weight max_vertex = 1;
    for (VertexId v = 0; v < h.num_vertices(); ++v) {
      max_vertex = std::max(max_vertex, h.vertex_weight(v));
    }
    const Weight cap = std::max<Weight>(
        {max_vertex,
         static_cast<Weight>(
             static_cast<double>(h.total_vertex_weight()) *
             options.cluster_weight_fraction) +
             1,
         h.total_vertex_weight() /
                 std::max<Weight>(1, options.coarsest_size) +
             1});
    std::vector<Weight> weight(r.num_clusters, 0);
    std::vector<bool> seen(r.num_clusters, false);
    for (VertexId v = 0; v < h.num_vertices(); ++v) {
      ASSERT_LT(r.cluster[v], r.num_clusters) << name;
      weight[r.cluster[v]] += h.vertex_weight(v);
      seen[r.cluster[v]] = true;
    }
    for (VertexId c = 0; c < r.num_clusters; ++c) {
      EXPECT_TRUE(seen[c]) << name << " cluster ids must be dense";
      EXPECT_LE(weight[c], cap) << name << " cluster " << c;
    }
  }
}

TEST(MultilevelCoarsen, ClusteringShrinksCoupledInstances) {
  const Hypergraph h = golden_instance("planted120");
  const ml::ClusteringResult r = ml::heavy_edge_clustering(h, {}, {});
  // 2-pin ~3-regular: nearly every vertex has an attractive partner.
  EXPECT_LT(r.num_clusters, (h.num_vertices() * 3) / 4);
}

TEST(MultilevelCoarsenParallel, ClusteringBitIdenticalAcrossLaneCounts) {
  for (const char* name : kGoldenInstances) {
    const Hypergraph h = golden_instance(name);
    const ml::ClusteringResult serial =
        ml::heavy_edge_clustering(h, {}, {});
    for (int threads : {2, 8}) {
      ThreadPool pool(threads);
      const ml::ClusteringResult parallel =
          ml::heavy_edge_clustering(h, {}, {}, &pool);
      EXPECT_EQ(parallel.num_clusters, serial.num_clusters)
          << name << " threads=" << threads;
      EXPECT_EQ(parallel.cluster, serial.cluster)
          << name << " threads=" << threads;
    }
  }
}

TEST(MultilevelCoarsenParallel, HierarchyBitIdenticalAcrossLaneCounts) {
  for (const char* name : kGoldenInstances) {
    const Hypergraph h = golden_instance(name);
    ml::CoarseningOptions options;
    options.coarsest_size = 30;
    options.coarsest_fraction = 0.0;  // absolute target: deep hierarchy
    const ml::Hierarchy serial = ml::build_hierarchy(h, options);
    for (int threads : {2, 8}) {
      ThreadPool pool(threads);
      const ml::Hierarchy parallel = ml::build_hierarchy(h, options, &pool);
      ASSERT_EQ(parallel.num_levels(), serial.num_levels())
          << name << " threads=" << threads;
      for (std::size_t i = 0; i < serial.num_levels(); ++i) {
        EXPECT_EQ(parallel.level(i).cluster, serial.level(i).cluster)
            << name << " level " << i << " threads=" << threads;
        EXPECT_EQ(parallel.level(i).coarse.num_vertices(),
                  serial.level(i).coarse.num_vertices());
        EXPECT_EQ(parallel.level(i).coarse.num_edges(),
                  serial.level(i).coarse.num_edges());
      }
    }
  }
}

TEST(MultilevelCoarsen, HierarchyRespectsCoarsestSizeAndShrinks) {
  const Hypergraph h = golden_instance("circuit150");
  ml::CoarseningOptions options;
  options.coarsest_size = 30;
  options.coarsest_fraction = 0.0;
  const ml::Hierarchy hierarchy = ml::build_hierarchy(h, options);
  ASSERT_GE(hierarchy.num_levels(), 1U);
  VertexId prev = h.num_vertices();
  for (std::size_t i = 0; i < hierarchy.num_levels(); ++i) {
    const VertexId n = hierarchy.level(i).coarse.num_vertices();
    EXPECT_LT(n, prev) << "level " << i << " must shrink";
    prev = n;
  }
  // Capped clustering lands within a small factor of the target (exact
  // arrival is not promised: once every cluster weighs more than cap/2 no
  // pair is mergeable). Algorithm I is indifferent to 30 vs 60 vertices.
  EXPECT_LE(hierarchy.coarsest().num_vertices(), 2 * options.coarsest_size);
}

TEST(MultilevelCoarsen, StarInstanceStallsInsteadOfLooping) {
  // A star: one hub net connecting everything, no 2-pin locality at all.
  // rating_net_cap excludes the hub net, so no vertex has a partner and
  // coarsening must stop immediately rather than spin on max_levels.
  HypergraphBuilder b;
  std::vector<VertexId> all;
  for (int i = 0; i < 64; ++i) all.push_back(b.add_vertex());
  b.add_edge(std::span<const VertexId>(all));
  const Hypergraph h = std::move(b).build();
  ml::CoarseningOptions options;
  options.coarsest_size = 4;
  const ml::Hierarchy hierarchy = ml::build_hierarchy(h, options);
  EXPECT_EQ(hierarchy.num_levels(), 0U);
  EXPECT_EQ(&hierarchy.coarsest(), &h);
}

// ---------------------------------------------------------------------------
// Hierarchy projection

TEST(MultilevelHierarchy, ProjectionExpandsClustersAndIsAllocationFree) {
  const Hypergraph h = golden_instance("planted120");
  ml::CoarseningOptions options;
  options.coarsest_size = 20;
  options.coarsest_fraction = 0.0;
  ml::Hierarchy hierarchy = ml::build_hierarchy(h, options);
  ASSERT_GE(hierarchy.num_levels(), 2U);
  const std::size_t bytes = hierarchy.projection_bytes();
  EXPECT_GE(bytes, 2 * static_cast<std::size_t>(h.num_vertices()));

  // Alternate sides at the coarsest level, then walk down: every level's
  // output must satisfy fine[v] == coarse[cluster[v]], and the reserved
  // buffers must never grow.
  std::vector<std::uint8_t> sides(hierarchy.coarsest().num_vertices());
  for (std::size_t v = 0; v < sides.size(); ++v) sides[v] = v & 1U;
  for (std::size_t i = hierarchy.num_levels(); i-- > 0;) {
    const std::span<const std::uint8_t> fine = hierarchy.project(i, sides);
    const ml::Level& level = hierarchy.level(i);
    ASSERT_EQ(fine.size(), level.cluster.size());
    for (std::size_t v = 0; v < fine.size(); ++v) {
      ASSERT_EQ(fine[v], sides[level.cluster[v]]) << "level " << i;
    }
    sides.assign(fine.begin(), fine.end());
  }
  EXPECT_EQ(sides.size(), h.num_vertices());
  EXPECT_EQ(hierarchy.projection_bytes(), bytes);
}

// ---------------------------------------------------------------------------
// Refiner contract

TEST(MultilevelRefine, FmRefinerNeverWorsensAndReportsImprovement) {
  const Hypergraph h = test::two_cluster_hypergraph(20, 2);
  // Worst-case start: split each cluster down the middle.
  std::vector<std::uint8_t> sides(h.num_vertices());
  for (std::size_t v = 0; v < sides.size(); ++v) sides[v] = v & 1U;
  const EdgeId before = test::count_cut_edges(h, sides);
  ml::FmRefiner refiner;
  const Weight improvement = refiner.refine(h, sides, 17);
  const EdgeId after = test::count_cut_edges(h, sides);
  EXPECT_GE(improvement, 0);
  EXPECT_LE(after, before);
  EXPECT_EQ(std::string(refiner.name()), "fm");
}

TEST(MultilevelRefine, TrivialInputsAreNoOps) {
  const Hypergraph h = test::path_hypergraph(2);
  std::vector<std::uint8_t> sides = {0, 1};
  ml::FmRefinerOptions options;
  options.max_passes = 0;
  ml::FmRefiner refiner(options);
  EXPECT_EQ(refiner.refine(h, sides, 1), 0);
  EXPECT_EQ(sides, (std::vector<std::uint8_t>{0, 1}));
}

// ---------------------------------------------------------------------------
// Engine

TEST(MultilevelEngine, SolvesTwoClustersProperly) {
  const Hypergraph h = test::two_cluster_hypergraph(40, 2);
  ml::EngineOptions options;
  options.coarsening.coarsest_size = 20;
  options.coarsening.coarsest_fraction = 0.0;
  const ml::MultilevelResult r = ml::multilevel_partition(h, options);
  EXPECT_EQ(r.metrics.cut_edges, 2U);
  EXPECT_TRUE(r.metrics.proper);
  EXPECT_EQ(r.metrics.cut_edges, test::count_cut_edges(h, r.sides));
  EXPECT_GE(r.levels, 1);
  EXPECT_LE(r.coarsest_vertices, 20U);
}

TEST(MultilevelEngine, FindsPlantedCuts) {
  PlantedParams params;
  params.num_vertices = 600;
  params.num_edges = 900;
  params.planted_cut = 4;
  params.min_edge_size = 2;
  params.max_edge_size = 2;
  params.max_degree = 0;
  int wins = 0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const PlantedInstance inst = planted_instance(params, seed);
    ml::EngineOptions options;
    options.coarsening.coarsest_size = 60;
    options.seed = seed + 1;
    const ml::MultilevelResult r =
        ml::multilevel_partition(inst.hypergraph, options);
    EXPECT_TRUE(r.metrics.proper) << "seed " << seed;
    if (r.metrics.cut_edges <= inst.planted_cut + 2) ++wins;
  }
  EXPECT_GE(wins, 2);
}

TEST(MultilevelEngine, DiagnosticsAreConsistent) {
  const Hypergraph h = golden_instance("circuit150");
  ml::EngineOptions options;
  options.coarsening.coarsest_size = 40;
  const ml::MultilevelResult r = ml::multilevel_partition(h, options);
  EXPECT_EQ(r.sides.size(), h.num_vertices());
  EXPECT_GE(r.levels, 1);
  EXPECT_GE(r.refine_improvement, 0);
  // Refinement only ever removes cut weight from the projected start.
  EXPECT_LE(r.metrics.cut_weight, r.initial_cut_weight + 0);
  EXPECT_EQ(r.metrics.cut_edges, test::count_cut_edges(h, r.sides));
}

class MultilevelEngineIdentity : public ::testing::TestWithParam<int> {};

TEST_P(MultilevelEngineIdentity, BitIdenticalAcrossThreadsMemoReorder) {
  const int threads = GetParam();
  for (const char* name : kGoldenInstances) {
    const Hypergraph h = golden_instance(name);
    std::uint64_t reference = 0;
    bool have_reference = false;
    for (const bool memoize : {true, false}) {
      for (const bool reorder : {true, false}) {
        ml::EngineOptions options;
        options.coarsening.coarsest_size = 30;
        options.initial.num_starts = 8;
        options.initial.memoize_starts = memoize;
        options.initial.reorder = reorder;
        options.seed = 11;
        options.threads = threads;
        const ml::MultilevelResult r = ml::multilevel_partition(h, options);
        const std::uint64_t hash = fnv1a(r.sides);
        if (!have_reference) {
          reference = hash;
          have_reference = true;
        }
        EXPECT_EQ(hash, reference)
            << name << " threads=" << threads << " memoize=" << memoize
            << " reorder=" << reorder;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, MultilevelEngineIdentity,
                         ::testing::Values(1, 2, 8));

TEST(MultilevelEngineIdentitySerial, ReferenceHashesAreStableAcrossRuns) {
  // Same options, run twice: the engine is a pure function of
  // (instance, options) — no hidden global state.
  const Hypergraph h = golden_instance("grid9x9");
  ml::EngineOptions options;
  options.coarsening.coarsest_size = 30;
  options.seed = 23;
  const ml::MultilevelResult a = ml::multilevel_partition(h, options);
  const ml::MultilevelResult b = ml::multilevel_partition(h, options);
  EXPECT_EQ(a.sides, b.sides);
  EXPECT_EQ(a.metrics.cut_weight, b.metrics.cut_weight);
  EXPECT_EQ(a.refine_improvement, b.refine_improvement);
}

// ---------------------------------------------------------------------------
// partition_auto

TEST(PartitionAuto, RoutesSmallInstancesToFlat) {
  const Hypergraph h = golden_instance("circuit150");
  ml::PartitionPlan plan;  // kAuto, default threshold 2000 >> 150
  const ml::EngineResult r = ml::partition_auto(h, plan);
  EXPECT_EQ(r.engine_used, ml::EngineChoice::kFlat);
  EXPECT_EQ(r.levels, 0);
  // The flat path IS Algorithm I with the plan's options.
  const Algorithm1Result flat = algorithm1(h, plan.algorithm1);
  EXPECT_EQ(r.sides, flat.sides);
  EXPECT_EQ(r.metrics.cut_weight, flat.metrics.cut_weight);
}

TEST(PartitionAuto, ThresholdRoutesLargeInstancesToMultilevel) {
  const Hypergraph h = golden_instance("circuit150");
  ml::PartitionPlan plan;
  plan.multilevel_threshold = 100;  // below the instance size
  const ml::EngineResult r = ml::partition_auto(h, plan);
  EXPECT_EQ(r.engine_used, ml::EngineChoice::kMultilevel);
  EXPECT_GE(r.levels, 1);
  EXPECT_TRUE(r.metrics.proper);
  EXPECT_EQ(r.metrics.cut_edges, test::count_cut_edges(h, r.sides));
}

TEST(PartitionAuto, ExplicitEngineChoiceOverridesSize) {
  const Hypergraph h = golden_instance("planted120");
  ml::PartitionPlan forced_ml;
  forced_ml.engine = ml::EngineChoice::kMultilevel;
  EXPECT_EQ(ml::partition_auto(h, forced_ml).engine_used,
            ml::EngineChoice::kMultilevel);
  ml::PartitionPlan forced_flat;
  forced_flat.engine = ml::EngineChoice::kFlat;
  forced_flat.multilevel_threshold = 1;  // would route to multilevel on auto
  EXPECT_EQ(ml::partition_auto(h, forced_flat).engine_used,
            ml::EngineChoice::kFlat);
}

TEST(PartitionAuto, FlatPostPassMetricsMatchSidesAtZeroGain) {
  // On this instance the flat path's flow+fm post-pass rebalances without
  // changing the cut: metrics re-scored only on a positive gain kept the
  // pre-pass side weights and imbalances.
  const Hypergraph h = generate_circuit(standard_cell_params(0.1), 2);
  ml::PartitionPlan plan;
  plan.engine = ml::EngineChoice::kFlat;
  plan.refiner = ml::RefinerChoice::kFlowFm;
  plan.algorithm1.threads = 1;
  const Algorithm1Result flat = algorithm1(h, plan.algorithm1);
  const ml::EngineResult r = ml::partition_auto(h, plan);
  ASSERT_NE(r.sides, flat.sides);
  EXPECT_EQ(r.metrics.cut_weight, flat.metrics.cut_weight);
  const validate::AuditReport report =
      validate::audit_metrics(h, r.sides, r.metrics);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(PartitionAuto, EngineNamesAreStable) {
  EXPECT_STREQ(ml::to_string(ml::EngineChoice::kFlat), "flat");
  EXPECT_STREQ(ml::to_string(ml::EngineChoice::kMultilevel), "multilevel");
  EXPECT_STREQ(ml::to_string(ml::EngineChoice::kAuto), "auto");
}

}  // namespace
}  // namespace fhp

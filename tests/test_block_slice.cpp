/// \file test_block_slice.cpp
/// The degenerate path bisects a dominant block on a slice of the parent
/// context (Algorithm1Context::slice) instead of re-running Algorithm I on
/// an induced copy. These tests keep the induced-copy composition as the
/// oracle: the slice must equal what a fresh run would build, and the
/// whole degenerate answer must be bit-identical to the composition's.
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/algorithm1.hpp"
#include "core/intersection.hpp"
#include "graph/components.hpp"
#include "hypergraph/transform.hpp"
#include "obs/report.hpp"
#include "util/rng.hpp"

namespace fhp {
namespace {

// ---- oracle: the degenerate path as an induced-copy composition --------

void oracle_balance_assign(const Hypergraph& h,
                           const std::vector<VertexId>& vertices,
                           std::vector<std::uint8_t>& sides,
                           Weight weights[2]) {
  std::vector<VertexId> order(vertices);
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    const Weight wa = h.vertex_weight(a);
    const Weight wb = h.vertex_weight(b);
    return wa != wb ? wa > wb : a < b;
  });
  for (VertexId v : order) {
    const std::uint8_t s = (weights[0] <= weights[1]) ? 0 : 1;
    sides[v] = s;
    weights[s] += h.vertex_weight(v);
  }
}

void oracle_ensure_proper(const Hypergraph& h,
                          std::vector<std::uint8_t>& sides) {
  VertexId counts[2] = {0, 0};
  for (std::uint8_t s : sides) ++counts[s];
  if (counts[0] > 0 && counts[1] > 0) return;
  const std::uint8_t full = counts[0] == 0 ? 1 : 0;
  VertexId lightest = kInvalidVertex;
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    if (sides[v] != full) continue;
    if (lightest == kInvalidVertex ||
        h.vertex_weight(v) < h.vertex_weight(lightest)) {
      lightest = v;
    }
  }
  sides[lightest] = static_cast<std::uint8_t>(1 - full);
}

/// Blocks of modules per G-component, modules in first-placement order.
std::vector<std::vector<VertexId>> component_blocks(
    const Algorithm1Context& context, const Components& comps) {
  const Hypergraph& filtered = context.filtered();
  std::vector<std::vector<VertexId>> blocks(comps.count());
  std::vector<std::uint8_t> placed(context.original().num_vertices(), 0);
  for (EdgeId e = 0; e < filtered.num_edges(); ++e) {
    for (VertexId v : filtered.pins(e)) {
      if (!placed[v]) {
        placed[v] = 1;
        blocks[comps.label[e]].push_back(v);
      }
    }
  }
  return blocks;
}

/// The degenerate path as it was composed before slicing: Algorithm I
/// re-run from scratch on the sub-hypergraph induced by the dominant block.
std::vector<std::uint8_t> induced_copy_oracle(
    const Hypergraph& h, const Algorithm1Options& options) {
  const Algorithm1Context context(h, options);
  EXPECT_TRUE(context.is_degenerate());
  const Components comps = connected_components(context.intersection());
  std::vector<std::vector<VertexId>> blocks = component_blocks(context, comps);
  std::vector<std::uint8_t> placed(h.num_vertices(), 0);
  for (const auto& block : blocks) {
    for (VertexId v : block) placed[v] = 1;
  }
  std::vector<VertexId> free_vertices;
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    if (!placed[v]) free_vertices.push_back(v);
  }

  Weight total = 0;
  std::size_t heaviest = 0;
  Weight heaviest_weight = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    Weight w = 0;
    for (VertexId v : blocks[b]) w += h.vertex_weight(v);
    total += w;
    if (w > heaviest_weight) {
      heaviest_weight = w;
      heaviest = b;
    }
  }
  for (VertexId v : free_vertices) total += h.vertex_weight(v);
  if (2 * heaviest_weight > total && blocks[heaviest].size() >= 2) {
    std::vector<std::uint8_t> keep(h.num_vertices(), 0);
    for (VertexId v : blocks[heaviest]) keep[v] = 1;
    const InducedResult sub = induced_subhypergraph(h, keep);
    Algorithm1Options inner_options = options;
    std::uint64_t sm = options.seed;
    inner_options.seed = splitmix64(sm);
    inner_options.collect_trace = false;
    const Algorithm1Result inner = algorithm1(sub.hypergraph, inner_options);
    std::vector<VertexId> half0;
    std::vector<VertexId> half1;
    for (VertexId u = 0; u < sub.hypergraph.num_vertices(); ++u) {
      (inner.sides[u] == 0 ? half0 : half1).push_back(sub.kept_vertices[u]);
    }
    blocks[heaviest] = std::move(half0);
    blocks.push_back(std::move(half1));
  }

  std::vector<Weight> block_weight(blocks.size(), 0);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    for (VertexId v : blocks[b]) block_weight[b] += h.vertex_weight(v);
  }
  std::vector<std::size_t> order(blocks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return block_weight[a] != block_weight[b]
               ? block_weight[a] > block_weight[b]
               : a < b;
  });
  std::vector<std::uint8_t> sides(h.num_vertices(), 0);
  Weight weights[2] = {0, 0};
  for (std::size_t b : order) {
    const std::uint8_t s = (weights[0] <= weights[1]) ? 0 : 1;
    for (VertexId v : blocks[b]) sides[v] = s;
    weights[s] += block_weight[b];
  }
  oracle_balance_assign(h, free_vertices, sides, weights);
  oracle_ensure_proper(h, sides);
  return sides;
}

// ---- instances ----------------------------------------------------------

/// 100 modules: a connected dominant block on 0..79 (a chain of 2-pin nets
/// plus random 2-3 pin nets), a small block on 80..89 and free modules
/// 90..99. At threshold 4, nets over the threshold cover every case of
/// the slice walk: two that straddle the block with 2 block pins and share
/// a module (so their G-rows meet), two with 5 and 7 block pins (kept in
/// the block, filtered out of it), and one with a single block pin.
Hypergraph straddling_instance(bool weighted) {
  HypergraphBuilder b;
  Rng rng(17);
  for (VertexId v = 0; v < 100; ++v) {
    b.add_vertex(weighted ? static_cast<Weight>(1 + rng.next_below(4)) : 1);
  }
  for (VertexId v = 0; v + 1 < 80; ++v) b.add_edge({v, v + 1});
  for (int i = 0; i < 40; ++i) {
    const auto a = static_cast<VertexId>(rng.next_below(80));
    const auto c = static_cast<VertexId>(rng.next_below(80));
    const auto d = static_cast<VertexId>(rng.next_below(80));
    b.add_edge({a, c, d});
  }
  for (VertexId v = 80; v + 1 < 90; ++v) b.add_edge({v, v + 1});
  b.add_edge({60, 61, 97, 98, 99});             // straddles: 2 block pins
  b.add_edge({10, 11, 12, 13, 14, 15, 16, 85});  // 7 block pins
  b.add_edge({61, 70, 96, 97, 98});             // straddles, meets the first
  b.add_edge({20, 85, 86, 87, 92});             // 1 block pin
  b.add_edge({30, 31, 40, 41, 50, 88, 93});     // 5 block pins
  return std::move(b).build();
}

/// Random disconnected instance: three blocks of small nets (60, 10 and 5
/// modules), free modules, and large nets across everything.
Hypergraph random_blocks_instance(std::uint64_t seed) {
  HypergraphBuilder b;
  Rng rng(seed);
  for (VertexId v = 0; v < 85; ++v) {
    b.add_vertex(static_cast<Weight>(1 + rng.next_below(3)));
  }
  const VertexId starts[] = {0, 60, 70};
  const VertexId sizes[] = {60, 10, 5};
  for (int block = 0; block < 3; ++block) {
    const VertexId lo = starts[block];
    for (VertexId v = lo; v + 1 < lo + sizes[block]; ++v) {
      b.add_edge({v, v + 1});
    }
    for (VertexId i = 0; i < sizes[block]; ++i) {
      std::vector<VertexId> pins;
      const auto size = 2 + rng.next_below(3);
      for (std::uint64_t k = 0; k < size; ++k) {
        pins.push_back(lo +
                       static_cast<VertexId>(rng.next_below(sizes[block])));
      }
      b.add_edge(std::span<const VertexId>(pins));
    }
  }
  for (int i = 0; i < 8; ++i) {
    std::vector<VertexId> pins;
    const auto size = 6 + rng.next_below(8);
    for (std::uint64_t k = 0; k < size; ++k) {
      pins.push_back(static_cast<VertexId>(rng.next_below(85)));
    }
    b.add_edge(std::span<const VertexId>(pins));
  }
  return std::move(b).build();
}

void expect_same_graph(const Graph& got, const Graph& want) {
  ASSERT_EQ(got.num_vertices(), want.num_vertices());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  for (VertexId v = 0; v < want.num_vertices(); ++v) {
    const auto a = got.neighbors(v);
    const auto b = want.neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "row " << v;
  }
}

/// The slice of every component equals the from-scratch build on the
/// induced block: block, filtered set and intersection graph.
void expect_slices_match_fresh_builds(const Hypergraph& h,
                                      std::uint32_t threshold) {
  Algorithm1Options options;
  options.large_edge_threshold = threshold;
  options.threads = 1;
  const Algorithm1Context context(h, options);
  const Components comps = connected_components(context.intersection());
  const auto blocks = component_blocks(context, comps);
  for (VertexId c = 0; c < comps.count(); ++c) {
    const Algorithm1Context::BlockSlice slice = context.slice(c);
    std::vector<std::uint8_t> keep(h.num_vertices(), 0);
    for (VertexId v : blocks[c]) keep[v] = 1;
    const InducedResult sub = induced_subhypergraph(h, keep);
    EXPECT_EQ(slice.kept_vertices, sub.kept_vertices) << "component " << c;
    EXPECT_EQ(slice.block.fingerprint(), sub.hypergraph.fingerprint())
        << "component " << c;
    const Hypergraph filtered =
        threshold > 0 ? filter_large_edges(sub.hypergraph, threshold).hypergraph
                      : filter_trivial_edges(sub.hypergraph).hypergraph;
    EXPECT_EQ(slice.filtered.fingerprint(), filtered.fingerprint())
        << "component " << c;
    expect_same_graph(slice.g, intersection_graph(filtered));
  }
}

// ---- tests --------------------------------------------------------------

TEST(BlockSlice, StraddlingInstanceHasTheCasesItClaims) {
  const Hypergraph h = straddling_instance(false);
  Algorithm1Options options;
  options.large_edge_threshold = 4;
  const Algorithm1Context context(h, options);
  ASSERT_TRUE(context.is_degenerate());
  const Components comps = connected_components(context.intersection());
  const VertexId dominant = comps.label[0];  // net {0, 1}
  const Algorithm1Context::BlockSlice slice = context.slice(dominant);
  ASSERT_EQ(slice.kept_vertices.size(), 80U);
  // Two nets more in the block's filtered set than in the component.
  EdgeId component_nets = 0;
  for (EdgeId e = 0; e < context.filtered().num_edges(); ++e) {
    if (comps.label[e] == dominant) ++component_nets;
  }
  EXPECT_EQ(slice.filtered.num_edges(), component_nets + 2);
  // ... and two more in the block itself (the 5- and 7-pin nets).
  EXPECT_EQ(slice.block.num_edges(), slice.filtered.num_edges() + 2);
}

TEST(BlockSlice, SlicesEqualFreshBuildsOnTheInducedBlock) {
  for (const bool weighted : {false, true}) {
    for (const std::uint32_t threshold : {0U, 3U, 4U, 6U, 10U}) {
      SCOPED_TRACE(::testing::Message() << "weighted=" << weighted
                                        << " threshold=" << threshold);
      expect_slices_match_fresh_builds(straddling_instance(weighted),
                                       threshold);
    }
  }
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const std::uint32_t threshold : {3U, 5U, 8U}) {
      SCOPED_TRACE(::testing::Message() << "seed=" << seed
                                        << " threshold=" << threshold);
      expect_slices_match_fresh_builds(random_blocks_instance(seed), threshold);
    }
  }
}

class DegenerateOracle : public ::testing::TestWithParam<int> {};

TEST_P(DegenerateOracle, BitIdenticalToInducedCopyComposition) {
  const int threads = GetParam();
  std::vector<std::pair<Hypergraph, std::uint32_t>> cases;
  cases.emplace_back(straddling_instance(false), 4U);
  cases.emplace_back(straddling_instance(true), 4U);
  cases.emplace_back(straddling_instance(true), 10U);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    cases.emplace_back(random_blocks_instance(seed), 5U);
  }
  int checked = 0;
  for (const auto& [h, threshold] : cases) {
    for (const int sweeps : {1, 2, 3}) {
      for (const bool memoize : {true, false}) {
        for (const bool reorder : {true, false}) {
          Algorithm1Options options;
          options.large_edge_threshold = threshold;
          options.num_starts = 12;
          options.seed = 5;
          options.bfs_sweeps = sweeps;
          options.memoize_starts = memoize;
          options.reorder = reorder;
          options.threads = threads;
          if (!Algorithm1Context(h, options).is_degenerate()) continue;
          const Algorithm1Result result = algorithm1(h, options);
          ASSERT_TRUE(result.disconnected_shortcut);
          const std::vector<std::uint8_t> expected =
              induced_copy_oracle(h, options);
          EXPECT_EQ(result.sides, expected)
              << "threshold=" << threshold << " sweeps=" << sweeps
              << " memoize=" << memoize << " reorder=" << reorder;
          EXPECT_EQ(result.metrics.cut_weight,
                    compute_metrics(Bipartition(h, expected)).cut_weight);
          ++checked;
        }
      }
    }
  }
  EXPECT_GE(checked, 3 * 3 * 2 * 2);
}

INSTANTIATE_TEST_SUITE_P(Threads, DegenerateOracle, ::testing::Values(1, 2, 8));

TEST(BlockSlice, DegenerateRunBuildsTheIntersectionGraphOnce) {
  obs::reset();
  Algorithm1Options options;
  options.large_edge_threshold = 4;
  options.collect_trace = true;
  const Algorithm1Result result =
      algorithm1(straddling_instance(false), options);
  ASSERT_TRUE(result.disconnected_shortcut);
#if FHP_TRACING_ENABLED
  EXPECT_EQ(result.trace.counter("alg1/degenerate_shortcuts"), 1);
  EXPECT_EQ(result.trace.counter("intersection/builds"), 1);
  // The block bisection still counts as a run of Algorithm I.
  EXPECT_EQ(result.trace.counter("alg1/runs"), 2);
#endif
}

}  // namespace
}  // namespace fhp

#include "partition/gain_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "baselines/fm.hpp"
#include "util/rng.hpp"

namespace fhp {
namespace {

constexpr Weight kMax = std::numeric_limits<Weight>::max();

/// Module ids in the engine's rank order: (weight, id) ascending.
std::vector<VertexId> ranked(const Hypergraph& h) {
  std::vector<VertexId> order(h.num_vertices());
  std::iota(order.begin(), order.end(), VertexId{0});
  std::sort(order.begin(), order.end(), [&h](VertexId a, VertexId b) {
    const Weight wa = h.vertex_weight(a);
    const Weight wb = h.vertex_weight(b);
    return wa != wb ? wa < wb : a < b;
  });
  return order;
}

/// The textbook cell gain, recomputed from the partition.
Weight reference_gain(const Bipartition& p, VertexId v) {
  const Hypergraph& h = p.hypergraph();
  const std::uint8_t s = p.side(v);
  Weight gain = 0;
  for (EdgeId e : h.nets_of(v)) {
    if (p.pins_on_side(e, s) == 1) gain += h.edge_weight(e);
    if (p.pins_on_side(e, static_cast<std::uint8_t>(1 - s)) == 0) {
      gain -= h.edge_weight(e);
    }
  }
  return gain;
}

/// Brute-force argmax over ranks [lo, hi) of side \p side: highest
/// reference gain, ties by \p tie.
VertexId brute_best(const Bipartition& p, const std::vector<VertexId>& order,
                    const std::vector<std::uint8_t>& locked,
                    std::uint8_t side, RankRange ranks, GainTie tie) {
  VertexId best = kInvalidVertex;
  Weight best_gain = 0;
  for (VertexId r = ranks.lo; r < ranks.hi; ++r) {
    const VertexId v = order[r];
    if (locked[v] || p.side(v) != side) continue;
    const Weight g = reference_gain(p, v);
    const bool id_wins =
        tie == GainTie::kHigherId ? v > best : v < best;
    if (best == kInvalidVertex || g > best_gain ||
        (g == best_gain && id_wins)) {
      best = v;
      best_gain = g;
    }
  }
  return best;
}

/// Random hypergraph with repeated module weights (ties in rank order)
/// and random net weights, including zero-weight nets.
Hypergraph random_weighted(Rng& rng, VertexId n) {
  HypergraphBuilder b;
  for (VertexId v = 0; v < n; ++v) {
    b.add_vertex(static_cast<Weight>(rng.next_below(6)));
  }
  const auto nets = static_cast<EdgeId>(n + rng.next_below(2 * n));
  for (EdgeId e = 0; e < nets; ++e) {
    std::vector<VertexId> pins;
    const auto size = 1 + rng.next_below(5);
    for (std::uint64_t i = 0; i < size; ++i) {
      pins.push_back(static_cast<VertexId>(rng.next_below(n)));
    }
    b.add_edge(pins, static_cast<Weight>(rng.next_below(5)));
  }
  return std::move(b).build();
}

std::vector<std::uint8_t> random_bits(Rng& rng, VertexId n, double p) {
  std::vector<std::uint8_t> bits(n);
  for (auto& bit : bits) bit = rng.next_bool(p) ? 1 : 0;
  return bits;
}

TEST(GainEngine, BestMatchesBruteForceThroughMoveSequences) {
  Rng rng(77);
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<VertexId>(2 + rng.next_below(60));
    const Hypergraph h = random_weighted(rng, n);
    const std::vector<VertexId> order = ranked(h);
    const GainTie tie = trial % 2 == 0 ? GainTie::kHigherId : GainTie::kLowerId;
    const bool lock_moves = trial % 3 != 0;
    Bipartition p(h, random_bits(rng, n, 0.5));
    std::vector<std::uint8_t> locked =
        trial % 4 == 0 ? std::vector<std::uint8_t>(n, 0)
                       : random_bits(rng, n, 0.2);
    GainEngine engine(p, tie);
    engine.start(locked);
    for (int step = 0; step < 40; ++step) {
      for (VertexId v = 0; v < n; ++v) {
        if (!locked[v]) {
          ASSERT_EQ(engine.gain(v), reference_gain(p, v))
              << "trial " << trial << " step " << step << " module " << v;
        }
      }
      for (int query = 0; query < 8; ++query) {
        VertexId lo = static_cast<VertexId>(rng.next_below(n + 1));
        VertexId hi = static_cast<VertexId>(rng.next_below(n + 1));
        if (lo > hi) std::swap(lo, hi);
        if (query == 0) {
          lo = 0;
          hi = n;
        }
        for (std::uint8_t s = 0; s < 2; ++s) {
          ASSERT_EQ(engine.best(s, {lo, hi}),
                    brute_best(p, order, locked, s, {lo, hi}, tie))
              << "trial " << trial << " step " << step << " side "
              << int{s} << " ranks [" << lo << ", " << hi << ")";
        }
      }
      // Move the best module of a random side (if any) and continue.
      const auto s = static_cast<std::uint8_t>(rng.next_below(2));
      const VertexId v = engine.best(s, {0, n});
      if (v == kInvalidVertex) break;
      engine.move(v, lock_moves);
      if (lock_moves) locked[v] = 1;
      p.validate();
    }
  }
}

TEST(GainEngine, TiesWithinASideFollowTheTieRule) {
  // No nets: every gain is 0, so the id alone decides.
  HypergraphBuilder b;
  b.add_vertices(8);
  const Hypergraph h = std::move(b).build();
  Bipartition p(h, {0, 1, 0, 1, 0, 1, 0, 1});
  GainEngine higher(p, GainTie::kHigherId);
  higher.start({});
  EXPECT_EQ(higher.best(0, {0, 8}), 6U);
  EXPECT_EQ(higher.best(1, {0, 8}), 7U);
  EXPECT_EQ(higher.best(0, {1, 5}), 4U);
  GainEngine lower(p, GainTie::kLowerId);
  lower.start({});
  EXPECT_EQ(lower.best(0, {0, 8}), 0U);
  EXPECT_EQ(lower.best(1, {0, 8}), 1U);
  EXPECT_EQ(lower.best(1, {2, 8}), 3U);
}

TEST(GainEngine, FmBreaksCrossSideTiesTowardSideZero) {
  // Two 2-pin nets straddling the cut: every module has gain +1. FM moves
  // side 0's winner (module 2) first, then at the next tie (module 0 on
  // side 0 vs module 1 on side 1) side 0 again, reaching cut 0 with every
  // module on side 1. Preferring side 1 would end with every module on
  // side 0 instead.
  HypergraphBuilder b;
  b.add_vertices(4);
  b.add_edge({0, 1});
  b.add_edge({2, 3});
  const Hypergraph h = std::move(b).build();
  FmOptions options;
  options.initial = std::vector<std::uint8_t>{0, 1, 0, 1};
  options.max_weight_imbalance = 4;
  options.max_passes = 1;
  const BaselineResult result = fiduccia_mattheyses(h, options);
  EXPECT_EQ(result.sides, (std::vector<std::uint8_t>{1, 1, 1, 1}));
  EXPECT_EQ(result.metrics.cut_weight, 0);
}

TEST(GainEngine, EmptyRangesAndAllLockedSidesYieldNoCandidate) {
  const Hypergraph h = Hypergraph::from_edges(6, {{0, 1, 2}, {3, 4, 5}, {2, 3}});
  Bipartition p(h, {0, 0, 0, 1, 1, 1});
  GainEngine engine(p, GainTie::kHigherId);
  engine.start({});
  for (VertexId r = 0; r <= 6; ++r) {
    EXPECT_EQ(engine.best(0, {r, r}), kInvalidVertex);
    EXPECT_EQ(engine.best(1, {r, r}), kInvalidVertex);
  }
  // Unit weights rank by id: ranks [3, 6) hold only side-1 modules.
  EXPECT_EQ(engine.best(0, {3, 6}), kInvalidVertex);
  EXPECT_NE(engine.best(1, {3, 6}), kInvalidVertex);

  engine.start(std::vector<std::uint8_t>{1, 1, 1, 0, 0, 0});
  EXPECT_EQ(engine.best(0, {0, 6}), kInvalidVertex);
  EXPECT_NE(engine.best(1, {0, 6}), kInvalidVertex);
  engine.start(std::vector<std::uint8_t>(6, 1));
  EXPECT_EQ(engine.best(0, {0, 6}), kInvalidVertex);
  EXPECT_EQ(engine.best(1, {0, 6}), kInvalidVertex);
  EXPECT_THROW(engine.start(std::vector<std::uint8_t>(5, 0)),
               PreconditionError);
}

/// Brute-force legality of moving a module of weight \p w off side
/// \p from, evaluated in 128 bits.
bool brute_legal(const Bipartition& p, std::uint8_t from, Weight w,
                 Weight tolerance) {
  const __int128 d = __int128{p.weight(from)} -
                     p.weight(static_cast<std::uint8_t>(1 - from));
  const __int128 diff = d - 2 * __int128{w};
  return (diff < 0 ? -diff : diff) <= tolerance;
}

void expect_legal_window(const Bipartition& p, const GainEngine& engine,
                         const std::vector<VertexId>& order,
                         Weight tolerance) {
  const Hypergraph& h = p.hypergraph();
  for (std::uint8_t from = 0; from < 2; ++from) {
    const RankRange legal = engine.legal_ranks(from, tolerance);
    ASSERT_LE(legal.lo, legal.hi);
    for (VertexId r = 0; r < order.size(); ++r) {
      const bool in_window = r >= legal.lo && r < legal.hi;
      EXPECT_EQ(in_window,
                brute_legal(p, from, h.vertex_weight(order[r]), tolerance))
          << "side " << int{from} << " rank " << r << " tolerance "
          << tolerance;
    }
  }
}

TEST(GainEngine, LegalWindowMatchesBruteForce) {
  Rng rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<VertexId>(2 + rng.next_below(40));
    const Hypergraph h = random_weighted(rng, n);
    const std::vector<VertexId> order = ranked(h);
    Bipartition p(h, random_bits(rng, n, 0.4));
    GainEngine engine(p, GainTie::kHigherId);
    for (const Weight tolerance : {Weight{0}, Weight{1}, Weight{3}, Weight{7},
                                   h.total_vertex_weight(), kMax}) {
      expect_legal_window(p, engine, order, tolerance);
    }
  }
}

TEST(GainEngine, LegalWindowIsExactNearInt64Weights) {
  // Module and side weights within a few units of Weight's range: the
  // window bounds D ± tolerance and 2·w would overflow a Weight.
  constexpr Weight kHalf = kMax / 2;
  HypergraphBuilder b;
  b.add_vertex(kHalf - 3);
  b.add_vertex(kHalf / 2);
  b.add_vertex(kHalf / 2 - 1);
  b.add_vertex(0);
  b.add_vertex(1);
  b.add_vertex(2);
  b.add_edge({0, 1, 2});
  b.add_edge({3, 4, 5, 0});
  const Hypergraph h = std::move(b).build();
  ASSERT_GT(h.total_vertex_weight(), kMax - 8);
  const std::vector<VertexId> order = ranked(h);
  Rng rng(9);
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<std::uint8_t> sides(6);
    for (VertexId v = 0; v < 6; ++v) sides[v] = (trial >> v) & 1U;
    Bipartition p(h, sides);
    GainEngine engine(p, GainTie::kHigherId);
    for (const Weight tolerance :
         {Weight{0}, Weight{1}, Weight{4}, kHalf / 2, kHalf - 3, kHalf,
          kMax - 1, kMax}) {
      expect_legal_window(p, engine, order, tolerance);
    }
  }
}

TEST(GainEngine, LighterPrefixMatchesBruteForce) {
  HypergraphBuilder b;
  for (const Weight w : {Weight{5}, Weight{1}, Weight{3}, Weight{3}, Weight{0},
                         Weight{9}, kMax / 4}) {
    b.add_vertex(w);
  }
  const Hypergraph h = std::move(b).build();
  Bipartition p(h);
  GainEngine engine(p, GainTie::kLowerId);
  for (const double limit : {-1.0, 0.0, 0.5, 1.0, 3.0, 3.5, 9.0, 10.0,
                             static_cast<double>(kMax / 4), 1e30}) {
    VertexId expected = 0;
    for (VertexId v = 0; v < h.num_vertices(); ++v) {
      if (static_cast<double>(h.vertex_weight(v)) < limit) ++expected;
    }
    EXPECT_EQ(engine.ranks_lighter_than(limit), expected) << limit;
  }
}

}  // namespace
}  // namespace fhp

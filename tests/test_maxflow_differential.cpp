// Differential and property tests for the compact max-flow solver
// (graph/maxflow.*) against the linked-list Dinic it replaced
// (tests/support/legacy_maxflow.*). Any exact solver must return the same
// flow value and — because every maximum flow leaves the same residual
// reachable set — the same min_cut_side(), so the corridor refiner's
// candidates must be identical too.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "baselines/random_cut.hpp"
#include "graph/maxflow.hpp"
#include "multilevel/flow_refine.hpp"
#include "support/legacy_maxflow.hpp"
#include "support/zoo.hpp"
#include "util/rng.hpp"

namespace fhp {
namespace {

using Capacity = FlowNetwork::Capacity;
constexpr Capacity kInf = FlowNetwork::kInfiniteCapacity;

struct ArcSpec {
  Count from;
  Count to;
  Capacity capacity;
};

struct NetSpec {
  Count nodes = 0;
  Count source = 0;
  Count sink = 0;
  std::vector<ArcSpec> arcs;
};

enum class Caps { kUnit, kGeometric, kNearInfinite, kWithZeros };

struct Shape {
  Count nodes;
  double arcs_per_node;  ///< ~1.5 sparse, ~n/2 dense
  Caps caps;
  bool parallel;          ///< duplicate some arcs
  bool unreachable_sink;  ///< no arc enters the sink
};

Capacity draw_capacity(Caps caps, Rng& rng) {
  switch (caps) {
    case Caps::kUnit:
      return 1;
    case Caps::kGeometric: {
      Capacity c = 1;
      while (rng.next_bool(0.5) && c < (Capacity{1} << 40)) c *= 2;
      return c;
    }
    case Caps::kNearInfinite:
      switch (rng.next_below(4)) {
        case 0:
          return kInf;
        case 1:
          return kInf - 1;
        case 2:
          return kInf - static_cast<Capacity>(rng.next_below(1000));
        default:
          return static_cast<Capacity>(rng.next_in(1, 9));
      }
    case Caps::kWithZeros:
      return rng.next_bool(0.3) ? 0 : static_cast<Capacity>(rng.next_in(1, 9));
  }
  return 1;
}

NetSpec random_network(const Shape& shape, Rng& rng) {
  NetSpec spec;
  spec.nodes = shape.nodes;
  spec.source = static_cast<Count>(rng.next_below(shape.nodes));
  do {
    spec.sink = static_cast<Count>(rng.next_below(shape.nodes));
  } while (spec.sink == spec.source);
  const auto target = static_cast<std::size_t>(
      shape.arcs_per_node * static_cast<double>(shape.nodes));
  // Near-infinite capacities: at most six arcs leave the source, so the
  // flow value (<= 6 * 2^60) stays inside int64.
  int source_arcs = 0;
  while (spec.arcs.size() < target) {
    const auto u = static_cast<Count>(rng.next_below(shape.nodes));
    const auto v = static_cast<Count>(rng.next_below(shape.nodes));
    if (shape.unreachable_sink && v == spec.sink) continue;
    if (u == spec.source && shape.caps == Caps::kNearInfinite &&
        ++source_arcs > 6) {
      continue;
    }
    const ArcSpec arc{u, v, draw_capacity(shape.caps, rng)};
    spec.arcs.push_back(arc);
    if (shape.parallel && rng.next_bool(0.3) &&
        !(u == spec.source && shape.caps == Caps::kNearInfinite)) {
      spec.arcs.push_back({u, v, draw_capacity(shape.caps, rng)});
    }
  }
  return spec;
}

struct Solved {
  Capacity flow = 0;
  std::vector<std::uint8_t> side;
  Count arcs = 0;
  bool operator==(const Solved&) const = default;
};

template <class Net>
Solved solve_on(Net& net, const NetSpec& spec) {
  for (std::size_t i = 0; i < spec.arcs.size(); ++i) {
    const ArcSpec& a = spec.arcs[i];
    EXPECT_EQ(net.add_arc(a.from, a.to, a.capacity), 2 * i);
  }
  Solved out;
  out.flow = net.max_flow(spec.source, spec.sink);
  out.side = net.min_cut_side();
  out.arcs = net.num_arcs();
  return out;
}

Solved solve_fresh(const NetSpec& spec) {
  FlowNetwork net(spec.nodes);
  return solve_on(net, spec);
}

Solved solve_legacy(const NetSpec& spec) {
  test::LegacyFlowNetwork net(spec.nodes);
  return solve_on(net, spec);
}

std::vector<Shape> shapes() {
  std::vector<Shape> out;
  for (const Caps caps :
       {Caps::kUnit, Caps::kGeometric, Caps::kNearInfinite, Caps::kWithZeros}) {
    for (const bool parallel : {false, true}) {
      out.push_back({6, 2.0, caps, parallel, false});
      out.push_back({12, 5.0, caps, parallel, false});     // dense
      out.push_back({60, 1.5, caps, parallel, false});     // sparse
      out.push_back({200, 3.0, caps, parallel, false});
      out.push_back({40, 20.0, caps, parallel, false});    // dense
      out.push_back({30, 2.5, caps, parallel, true});      // no way in
    }
  }
  return out;
}

TEST(MaxFlowDifferential, MatchesLegacySolverOnRandomNetworks) {
  Rng rng(14);
  int nonzero = 0;
  for (const Shape& shape : shapes()) {
    for (int rep = 0; rep < 12; ++rep) {
      const NetSpec spec = random_network(shape, rng);
      const Solved got = solve_fresh(spec);
      const Solved want = solve_legacy(spec);
      const std::string where = "nodes " + std::to_string(shape.nodes) +
                                " caps " +
                                std::to_string(static_cast<int>(shape.caps)) +
                                " rep " + std::to_string(rep);
      ASSERT_EQ(got.flow, want.flow) << where;
      ASSERT_EQ(got.side, want.side) << where;
      ASSERT_EQ(got.arcs, want.arcs) << where;
      EXPECT_EQ(got.side[spec.source], 1) << where;
      EXPECT_EQ(got.side[spec.sink], 0) << where;
      if (shape.unreachable_sink) {
        EXPECT_EQ(got.flow, 0) << where;
      }
      if (got.flow > 0) ++nonzero;
    }
  }
  EXPECT_GT(nonzero, 300);  // the sweep is not dominated by trivial cuts
}

TEST(MaxFlowDifferential, MinCutSideIsTheIntersectionOfAllMinimumCuts) {
  // Brute force over every s-t cut of small networks: min_cut_side() must
  // be the source side shared by all minimum cuts (the inclusion-minimal
  // one), and its capacity the flow value.
  Rng rng(1989);
  for (int rep = 0; rep < 400; ++rep) {
    const Shape shape{static_cast<Count>(3 + rng.next_below(10)),
                      1.0 + 3.0 * rng.next_double(),
                      rng.next_bool(0.5) ? Caps::kUnit : Caps::kWithZeros,
                      rng.next_bool(0.5), rng.next_bool(0.1)};
    const NetSpec spec = random_network(shape, rng);
    const Solved got = solve_fresh(spec);

    std::vector<Count> free;
    for (Count v = 0; v < spec.nodes; ++v) {
      if (v != spec.source && v != spec.sink) free.push_back(v);
    }
    Capacity best = -1;
    std::vector<std::uint8_t> intersection;
    for (std::uint32_t mask = 0; mask < (1u << free.size()); ++mask) {
      std::vector<std::uint8_t> in_s(spec.nodes, 0);
      in_s[spec.source] = 1;
      for (std::size_t i = 0; i < free.size(); ++i) {
        if ((mask >> i) & 1u) in_s[free[i]] = 1;
      }
      Capacity cut = 0;
      for (const ArcSpec& a : spec.arcs) {
        if (in_s[a.from] != 0 && in_s[a.to] == 0) cut += a.capacity;
      }
      if (best < 0 || cut < best) {
        best = cut;
        intersection = in_s;
      } else if (cut == best) {
        for (Count v = 0; v < spec.nodes; ++v) intersection[v] &= in_s[v];
      }
    }
    ASSERT_EQ(got.flow, best) << "rep " << rep;
    ASSERT_EQ(got.side, intersection) << "rep " << rep;
  }
}

TEST(MaxFlowDifferential, ResetNetworkMatchesFreshNetworks) {
  // One network reset across solves of growing and shrinking size keeps
  // its buffers but must answer exactly like a fresh network.
  Rng rng(7);
  FlowNetwork reused(0);
  for (int rep = 0; rep < 60; ++rep) {
    const Shape shape{static_cast<Count>(rep % 3 == 0 ? 150 : 8 + rep % 11),
                      1.0 + static_cast<double>(rep % 5),
                      rep % 2 == 0 ? Caps::kUnit : Caps::kGeometric,
                      rep % 4 == 0, false};
    const NetSpec spec = random_network(shape, rng);
    reused.reset(spec.nodes);
    EXPECT_EQ(reused.num_nodes(), spec.nodes);
    EXPECT_EQ(reused.num_arcs(), 0);
    ASSERT_EQ(solve_on(reused, spec), solve_fresh(spec)) << "rep " << rep;
  }
}

TEST(MaxFlowDifferential, ResetKeepsTheAdmissionChecks) {
  FlowNetwork net(2);
  net.add_arc(0, 1, 3);
  (void)net.max_flow(0, 1);
  EXPECT_THROW(net.add_arc(0, 1, 1), PreconditionError);  // solved
  net.reset(3);
  EXPECT_THROW((void)net.min_cut_side(), PreconditionError);
  EXPECT_THROW(net.add_arc(0, 3, 1), PreconditionError);
  net.add_arc(0, 1, 2);
  net.add_arc(1, 2, 5);
  EXPECT_EQ(net.max_flow(0, 2), 2);
  if constexpr (sizeof(VertexId) == 4) {
    EXPECT_THROW(net.reset(static_cast<Count>(2147483648ULL)),
                 PreconditionError);
  }
}

/// Corridors for \p sides: a random ~60% mask, everything but one anchor
/// per side, and the cut-net boundary — each with one exterior anchor per
/// side forced out.
std::vector<std::vector<std::uint8_t>> corridors_for(
    const Hypergraph& h, const std::vector<std::uint8_t>& sides, Rng& rng) {
  const VertexId n = h.num_vertices();
  VertexId anchor[2] = {kInvalidVertex, kInvalidVertex};
  for (VertexId v = 0; v < n; ++v) {
    if (anchor[sides[v]] == kInvalidVertex) anchor[sides[v]] = v;
  }
  std::vector<std::vector<std::uint8_t>> out(3, std::vector<std::uint8_t>(n));
  for (VertexId v = 0; v < n; ++v) {
    out[0][v] = rng.next_bool(0.6) ? 1 : 0;
    out[1][v] = 1;
  }
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    bool on[2] = {false, false};
    for (VertexId v : h.pins(e)) on[sides[v]] = true;
    if (!(on[0] && on[1])) continue;
    for (VertexId v : h.pins(e)) out[2][v] = 1;
  }
  for (auto& corridor : out) {
    for (const VertexId a : anchor) {
      if (a != kInvalidVertex) corridor[a] = 0;
    }
  }
  return out;
}

TEST(SolveCorridorDifferential, MatchesLegacySolverOverTheZoo) {
  FlowNetwork reused(0);
  int solved = 0;
  for (const auto& [name, h] : test::generator_zoo()) {
    Rng rng(static_cast<std::uint64_t>(h.num_vertices()) * 17 +
            h.num_edges());
    for (int rep = 0; rep < 3; ++rep) {
      const std::vector<std::uint8_t> sides =
          random_bisection(h, rng()).sides;
      const auto corridors = corridors_for(h, sides, rng);
      for (std::size_t c = 0; c < corridors.size(); ++c) {
        const std::string where =
            name + " rep " + std::to_string(rep) + " corridor " +
            std::to_string(c);
        const ml::CorridorSolve want =
            test::legacy_solve_corridor(h, sides, corridors[c]);
        for (const bool reuse : {false, true}) {
          const ml::CorridorSolve got =
              reuse ? ml::solve_corridor(h, sides, corridors[c], reused)
                    : ml::solve_corridor(h, sides, corridors[c]);
          ASSERT_EQ(got.solved, want.solved) << where;
          ASSERT_EQ(got.sides, want.sides) << where;
          ASSERT_EQ(got.flow_value, want.flow_value) << where;
          ASSERT_EQ(got.cut_weight, want.cut_weight) << where;
          ASSERT_EQ(got.gadget_arcs, want.gadget_arcs) << where;
        }
        if (want.solved) ++solved;
      }
    }
  }
  EXPECT_GT(solved, 60);
}

TEST(FlowRefinerReuse, ReusedRefinerMatchesFreshRefiners) {
  // One refiner driven across instances of very different sizes (its
  // network and workspace grow and shrink between calls) must answer
  // exactly like a fresh refiner per call.
  const auto instances = test::generator_zoo();
  ml::FlowRefiner reused;
  Rng rng(31);
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < instances.size(); ++i) {
      // Alternate ends of the zoo so consecutive sizes jump around.
      const std::size_t k =
          i % 2 == 0 ? i / 2 : instances.size() - 1 - i / 2;
      const auto& [name, h] = instances[k];
      const std::vector<std::uint8_t> start =
          random_bisection(h, rng()).sides;
      std::vector<std::uint8_t> a = start;
      std::vector<std::uint8_t> b = start;
      ml::FlowRefiner fresh;
      const Weight gain_reused = reused.refine(h, a, 0);
      const Weight gain_fresh = fresh.refine(h, b, 0);
      ASSERT_EQ(gain_reused, gain_fresh) << name << " round " << round;
      ASSERT_EQ(a, b) << name << " round " << round;
    }
  }
}

}  // namespace
}  // namespace fhp

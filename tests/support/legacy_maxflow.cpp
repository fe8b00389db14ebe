#include "support/legacy_maxflow.hpp"

#include <algorithm>

#include "multilevel/refine.hpp"

namespace fhp::test {

LegacyFlowNetwork::LegacyFlowNetwork(Count num_nodes) {
  // Admission before allocation: a hostile or miscomputed node count must
  // fail typed, never wrap an id or demand count-proportional memory
  // first. (Count can represent values past kMaxIndexCount — the unsigned
  // range exceeds the signed Index range — so the check is meaningful on
  // both index widths.)
  FHP_REQUIRE(static_cast<std::uint64_t>(num_nodes) <= kMaxIndexCount,
              "flow network node count exceeds the index range");
  head_.assign(num_nodes, kNoArc);
}

Count LegacyFlowNetwork::add_arc(Count from, Count to, Capacity capacity) {
  FHP_REQUIRE(from < num_nodes() && to < num_nodes(),
              "arc endpoint out of range");
  FHP_REQUIRE(capacity >= 0, "arc capacity must be non-negative");
  FHP_REQUIRE(capacity <= kInfiniteCapacity,
              "arc capacity exceeds kInfiniteCapacity");
  FHP_REQUIRE(!solved_, "network already solved");
  // Arc ids must fit the index range with room for the residual partner
  // (ids id and id^1); the xor-partner trick additionally needs id even.
  FHP_REQUIRE(static_cast<std::uint64_t>(arcs_.size()) + 1 <= kMaxIndexCount,
              "flow network arc count exceeds the index range");
  const auto id = static_cast<Count>(arcs_.size());
  arcs_.push_back(Arc{to, head_[from], capacity});
  head_[from] = id;
  arcs_.push_back(Arc{from, head_[to], 0});
  head_[to] = id + 1;
  return id;
}

bool LegacyFlowNetwork::build_levels(Count source, Count sink) {
  level_.assign(num_nodes(), kNoLevel);
  level_[source] = 0;
  std::vector<Count> queue{source};
  for (std::size_t headpos = 0; headpos < queue.size(); ++headpos) {
    const Count u = queue[headpos];
    for (Count a = head_[u]; a != kNoArc; a = arcs_[a].next) {
      const Arc& arc = arcs_[a];
      if (arc.residual > 0 && level_[arc.to] == kNoLevel) {
        level_[arc.to] = level_[u] + 1;
        queue.push_back(arc.to);
      }
    }
  }
  return level_[sink] != kNoLevel;
}

LegacyFlowNetwork::Capacity LegacyFlowNetwork::push(Count node, Count sink,
                                                    Capacity limit) {
  if (node == sink) return limit;
  for (Count& a = iter_[node]; a != kNoArc; a = arcs_[a].next) {
    Arc& arc = arcs_[a];
    if (arc.residual <= 0 || level_[arc.to] != level_[node] + 1) continue;
    const Capacity sent =
        push(arc.to, sink, std::min(limit, arc.residual));
    if (sent > 0) {
      arc.residual -= sent;
      arcs_[a ^ 1].residual += sent;
      return sent;
    }
  }
  return 0;
}

LegacyFlowNetwork::Capacity LegacyFlowNetwork::max_flow(Count source,
                                                        Count sink) {
  FHP_REQUIRE(source < num_nodes() && sink < num_nodes(),
              "terminal out of range");
  FHP_REQUIRE(source != sink, "source and sink must differ");
  FHP_REQUIRE(!solved_, "network already solved");
  solved_ = true;
  source_ = source;

  Capacity total = 0;
  while (build_levels(source, sink)) {
    iter_ = head_;
    for (;;) {
      const Capacity sent = push(source, sink, kInfiniteCapacity);
      if (sent == 0) break;
      total += sent;
    }
  }
  return total;
}

std::vector<std::uint8_t> LegacyFlowNetwork::min_cut_side() const {
  FHP_REQUIRE(solved_, "call max_flow() first");
  std::vector<std::uint8_t> side(num_nodes(), 0);
  std::vector<Count> queue{source_};
  side[source_] = 1;
  for (std::size_t headpos = 0; headpos < queue.size(); ++headpos) {
    const Count u = queue[headpos];
    for (Count a = head_[u]; a != kNoArc; a = arcs_[a].next) {
      const Arc& arc = arcs_[a];
      if (arc.residual > 0 && !side[arc.to]) {
        side[arc.to] = 1;
        queue.push_back(arc.to);
      }
    }
  }
  return side;
}

ml::CorridorSolve legacy_solve_corridor(
    const Hypergraph& h, const std::vector<std::uint8_t>& sides,
    const std::vector<std::uint8_t>& in_corridor) {
  FHP_REQUIRE(sides.size() == h.num_vertices(), "one side per module");
  FHP_REQUIRE(in_corridor.size() == h.num_vertices(),
              "one corridor flag per module");
  ml::CorridorSolve result;
  result.sides = sides;

  const VertexId n = h.num_vertices();
  std::vector<Count> local(n, kInvalidVertex);
  Count movable = 0;
  VertexId exterior[2] = {0, 0};
  for (VertexId v = 0; v < n; ++v) {
    if (in_corridor[v] != 0) {
      local[v] = movable++;
    } else {
      ++exterior[sides[v]];
    }
  }
  // Both terminals need a contracted module behind them; otherwise the
  // min cut could legally empty a side, which is never adoptable.
  if (movable == 0 || exterior[0] == 0 || exterior[1] == 0) return result;

  // Only nets touching the corridor can change cut status; everything
  // else is constant and stays out of the gadget.
  std::vector<EdgeId> relevant;
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    for (VertexId v : h.pins(e)) {
      if (in_corridor[v] != 0) {
        relevant.push_back(e);
        break;
      }
    }
  }
  if (relevant.empty()) return result;

  // Gadget sizing in 64-bit so an inadmissible node count fails typed
  // instead of wrapping before the network's own admission check.
  const std::uint64_t nodes64 =
      static_cast<std::uint64_t>(movable) +
      2 * static_cast<std::uint64_t>(relevant.size()) + 2;
  FHP_REQUIRE(nodes64 <= kMaxIndexCount,
              "flow gadget node count exceeds the index range");

  // Capacity-overflow guard: the flow value is bounded by the summed
  // relevant-net weight, which must stay strictly below the uncuttable
  // arc capacity for the gadget's arithmetic to be exact. Weight regimes
  // near the int64 ceiling (contract-test territory) land here.
  Weight weight_sum = 0;
  for (const EdgeId e : relevant) {
    const Weight w = h.edge_weight(e);
    FHP_REQUIRE(w < LegacyFlowNetwork::kInfiniteCapacity - weight_sum,
                "flow gadget capacity overflow: summed net weight reaches "
                "the uncuttable-arc capacity");
    weight_sum += w;
  }

  const auto super_s =
      static_cast<Count>(movable + 2 * static_cast<Count>(relevant.size()));
  const Count super_t = super_s + 1;
  LegacyFlowNetwork net(super_t + 1);

  // The Lawler hyperedge gadget: net e becomes in→out with capacity
  // edge_weight(e); every pin is wired to both split nodes with
  // uncuttable arcs. Corridor pins connect through their local node,
  // exterior pins through the super terminal of their current side (one
  // arc pair per terminal per net — further exterior pins on the same
  // side are redundant).
  for (std::size_t j = 0; j < relevant.size(); ++j) {
    const EdgeId e = relevant[j];
    const auto in = static_cast<Count>(movable + 2 * j);
    const Count out = in + 1;
    net.add_arc(in, out, h.edge_weight(e));
    bool wired[2] = {false, false};
    for (VertexId v : h.pins(e)) {
      Count node;
      if (in_corridor[v] != 0) {
        node = local[v];
      } else {
        const std::uint8_t s = sides[v];
        if (wired[s]) continue;
        wired[s] = true;
        node = s == 0 ? super_s : super_t;
      }
      net.add_arc(node, in, LegacyFlowNetwork::kInfiniteCapacity);
      net.add_arc(out, node, LegacyFlowNetwork::kInfiniteCapacity);
    }
  }

  result.flow_value = net.max_flow(super_s, super_t);
  result.gadget_arcs = net.num_arcs();
  const std::vector<std::uint8_t> reach = net.min_cut_side();
  for (VertexId v = 0; v < n; ++v) {
    if (in_corridor[v] != 0) result.sides[v] = reach[local[v]] != 0 ? 0 : 1;
  }
  result.cut_weight = ml::cut_weight_of(h, result.sides);
  result.solved = true;
  return result;
}

}  // namespace fhp::test

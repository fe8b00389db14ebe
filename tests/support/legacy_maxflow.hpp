/// \file legacy_maxflow.hpp
/// Test-only oracle: the max-flow solver as it was before the compact
/// solver (graph/maxflow.hpp) — Dinic over per-node linked arc lists
/// (head_/next), a forward BFS that runs to exhaustion every phase, and
/// a DFS that returns after one augmenting path and restarts from the
/// source. Together with legacy_solve_corridor(), the corridor gadget
/// solved on this network, it lets tests demand identical flow values,
/// min-cut sides and corridor candidates from the library solver.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/maxflow.hpp"
#include "multilevel/flow_refine.hpp"

namespace fhp::test {

/// The linked-list Dinic solver; same admission checks and API as
/// FlowNetwork (without reset()).
class LegacyFlowNetwork {
 public:
  using Capacity = FlowNetwork::Capacity;
  static constexpr Capacity kInfiniteCapacity = FlowNetwork::kInfiniteCapacity;

  explicit LegacyFlowNetwork(Count num_nodes);

  [[nodiscard]] Count num_nodes() const noexcept {
    return static_cast<Count>(head_.size());
  }
  [[nodiscard]] Count num_arcs() const noexcept {
    return static_cast<Count>(arcs_.size());
  }
  Count add_arc(Count from, Count to, Capacity capacity);
  Capacity max_flow(Count source, Count sink);
  [[nodiscard]] std::vector<std::uint8_t> min_cut_side() const;

 private:
  struct Arc {
    Count to;
    Count next;  ///< next arc id in the from-node's list
    Capacity residual;
  };

  bool build_levels(Count source, Count sink);
  Capacity push(Count node, Count sink, Capacity limit);

  std::vector<Count> head_;  ///< first arc id per node
  std::vector<Arc> arcs_;    ///< arc i and i^1 are partners
  std::vector<Count> level_;
  std::vector<Count> iter_;
  Count source_ = 0;
  bool solved_ = false;

  static constexpr Count kNoArc = std::numeric_limits<Count>::max();
  static constexpr Count kNoLevel = std::numeric_limits<Count>::max();
};

/// ml::solve_corridor() with the gadget solved on LegacyFlowNetwork.
[[nodiscard]] ml::CorridorSolve legacy_solve_corridor(
    const Hypergraph& h, const std::vector<std::uint8_t>& sides,
    const std::vector<std::uint8_t>& in_corridor);

}  // namespace fhp::test

/// \file maxflow.hpp
/// Maximum s-t flow / minimum s-t cut on a directed capacitated network
/// (Dinic's algorithm on a compact adjacency).
///
/// Substrate for the network-flow bipartitioning family the paper lists
/// among its competitors (§1: Chopra [7]; Hu–Moerder multiterminal
/// hypergraph flows [16]) and for the multilevel engine's corridor flow
/// refiner (src/multilevel/flow_refine.hpp). Also reusable on its own.
///
/// Node and arc ids are fhp::Count — the build-configured index width
/// (util/ids.hpp). Under `-DFHP_INDEX_64=ON` the Lawler hyperedge gadget
/// (2·|corridor| + 2·nets nodes) of a million-module corridor indexes
/// without overflow; on the default 32-bit build the constructor and
/// add_arc() reject counts past kMaxIndexCount with a typed error before
/// any count-proportional allocation, so ids can never silently wrap.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "util/error.hpp"
#include "util/ids.hpp"

namespace fhp {

/// Directed flow network with residual bookkeeping. Add nodes and arcs,
/// then call max_flow(); afterwards min_cut_side() exposes the source
/// side of the inclusion-minimal minimum s-t cut.
///
/// Layout: add_arc() appends each arc and its residual partner as two
/// *slots* {head, partner slot, residual}. max_flow() then sorts the slots
/// in place, stably, into CSR order (one contiguous slot range per tail
/// node, in add order), so the solver walks arrays instead of linked
/// lists; no second copy of the arcs is made. Each Dinic phase labels
/// nodes by residual distance *to the sink* (a reverse BFS that stops
/// once the source is labelled) and pushes a blocking flow with one
/// iterative DFS over current-arc pointers, unlabelling dead nodes.
/// reset() re-arms the network for another solve and keeps every
/// buffer's capacity.
class FlowNetwork {
 public:
  /// Capacity type; kInfiniteCapacity models the "uncuttable" arcs of the
  /// standard hyperedge gadget. Finite capacities must stay strictly
  /// below it (add_arc rejects larger ones): residual updates add at most
  /// one total-flow's worth of weight to a reverse arc, and with every
  /// finite capacity < 2^60 the running sums stay clear of int64 overflow.
  using Capacity = std::int64_t;
  static constexpr Capacity kInfiniteCapacity =
      std::int64_t{1} << 60;

  /// Creates a network with \p num_nodes nodes and no arcs. \p num_nodes
  /// must be admissible for the build's index width (<= kMaxIndexCount);
  /// violations throw PreconditionError before anything is allocated.
  explicit FlowNetwork(Count num_nodes);

  /// Drops every arc and re-arms the network with \p num_nodes nodes, as
  /// if freshly constructed, but keeps the buffers: a network reused
  /// across solves allocates only when a solve outgrows all earlier ones.
  /// Same admission check as the constructor.
  void reset(Count num_nodes);

  /// Number of nodes.
  [[nodiscard]] Count num_nodes() const noexcept { return num_nodes_; }

  /// Number of directed arcs stored (two per add_arc call: the forward
  /// arc and its zero-capacity residual partner).
  [[nodiscard]] Count num_arcs() const noexcept {
    return static_cast<Count>(slots_.size());
  }

  /// Adds a directed arc from \p from to \p to with capacity \p capacity
  /// (and a zero-capacity reverse residual arc). Returns the arc id.
  /// Capacities above kInfiniteCapacity and arc counts past
  /// kMaxIndexCount fail typed.
  Count add_arc(Count from, Count to, Capacity capacity);

  /// Computes the maximum flow from \p source to \p sink; callable once
  /// per network (capacities are consumed; reset() re-arms). O(V^2 E)
  /// worst case, far better on the unit-ish networks used here.
  Capacity max_flow(Count source, Count sink);

  /// After max_flow(): marker per node, 1 = reachable from the source in
  /// the residual network. Every maximum flow leaves the same reachable
  /// set — the source side of the unique inclusion-minimal minimum cut —
  /// so the answer does not depend on which augmenting paths were taken.
  [[nodiscard]] std::vector<std::uint8_t> min_cut_side() const;

 private:
  /// One direction of an arc pair. Before max_flow() slots sit in
  /// add_arc order (the pair of arc id a is slots a and a+1); afterwards
  /// in CSR order, where `first_` delimits each tail node's range.
  struct Slot {
    Count to;
    Count partner;  ///< slot of the opposite direction
    Capacity residual;
  };

  void sort_slots_by_tail();
  void update_reverse_head(Count slot);
  bool label_from_sink(Count source, Count sink);
  Capacity blocking_flow(Count source, Count sink);

  Count num_nodes_ = 0;
  std::vector<Slot> slots_;
  /// Degree per node while arcs are added; CSR offsets (num_nodes + 1
  /// entries) once max_flow() has sorted the slots.
  std::vector<Count> first_;
  /// Per slot w→u: u while the partner arc u→w has residual capacity,
  /// else the sentinel num_nodes — the reverse BFS reads only this array.
  /// Holds the sort permutation while max_flow() lays the slots out.
  std::vector<Count> reverse_head_;
  /// Residual distance to the sink, or kNoLevel; one extra entry for the
  /// sentinel, which always reads as labelled.
  std::vector<Count> dist_;
  std::vector<Count> iter_;  ///< current-arc pointer (slot) per node
  std::vector<Count> queue_;
  std::vector<Count> path_;  ///< slots of the DFS path from the source
  Count source_ = 0;
  bool solved_ = false;

  static constexpr Count kNoLevel = std::numeric_limits<Count>::max();
};

}  // namespace fhp

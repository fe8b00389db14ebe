#include "graph/maxflow.hpp"

#include <algorithm>
#include <utility>

namespace fhp {

FlowNetwork::FlowNetwork(Count num_nodes) { reset(num_nodes); }

void FlowNetwork::reset(Count num_nodes) {
  // Admission before allocation: a hostile or miscomputed node count must
  // fail typed, never wrap an id or demand count-proportional memory
  // first. (Count can represent values past kMaxIndexCount — the unsigned
  // range exceeds the signed Index range — so the check is meaningful on
  // both index widths.)
  FHP_REQUIRE(static_cast<std::uint64_t>(num_nodes) <= kMaxIndexCount,
              "flow network node count exceeds the index range");
  num_nodes_ = num_nodes;
  slots_.clear();
  first_.assign(num_nodes + 1, 0);
  source_ = 0;
  solved_ = false;
}

Count FlowNetwork::add_arc(Count from, Count to, Capacity capacity) {
  FHP_REQUIRE(from < num_nodes() && to < num_nodes(),
              "arc endpoint out of range");
  FHP_REQUIRE(capacity >= 0, "arc capacity must be non-negative");
  FHP_REQUIRE(capacity <= kInfiniteCapacity,
              "arc capacity exceeds kInfiniteCapacity");
  FHP_REQUIRE(!solved_, "network already solved");
  // Slot ids must fit the index range with room for the residual partner
  // (slots id and id + 1).
  FHP_REQUIRE(static_cast<std::uint64_t>(slots_.size()) + 1 <= kMaxIndexCount,
              "flow network arc count exceeds the index range");
  const auto id = static_cast<Count>(slots_.size());
  slots_.push_back(Slot{to, id + 1, capacity});
  slots_.push_back(Slot{from, id, 0});
  ++first_[from];  // degrees until max_flow() turns them into offsets
  ++first_[to];
  return id;
}

void FlowNetwork::sort_slots_by_tail() {
  Count offset = 0;
  for (Count& entry : first_) offset += std::exchange(entry, offset);

  // Stable counting sort in place: arc pair (k, k + 1) — tails are each
  // other's heads — gets its CSR positions from per-node cursors, each
  // slot learns its partner's new position, and the slots then follow
  // the permutation's cycles. The permutation borrows reverse_head_.
  const auto total = static_cast<Count>(slots_.size());
  std::vector<Count>& dest = reverse_head_;
  dest.resize(total);
  iter_.assign(first_.begin(), first_.end() - 1);
  for (Count k = 0; k < total; k += 2) {
    dest[k] = iter_[slots_[k + 1].to]++;
    dest[k + 1] = iter_[slots_[k].to]++;
    slots_[k].partner = dest[k + 1];
    slots_[k + 1].partner = dest[k];
  }
  for (Count i = 0; i < total; ++i) {
    while (dest[i] != i) {
      const Count j = dest[i];
      std::swap(slots_[i], slots_[j]);
      std::swap(dest[i], dest[j]);
    }
  }
  for (Count k = 0; k < total; ++k) update_reverse_head(k);
}

void FlowNetwork::update_reverse_head(Count k) {
  const Slot& slot = slots_[k];
  reverse_head_[k] =
      slots_[slot.partner].residual > 0 ? slot.to : num_nodes_;
}

bool FlowNetwork::label_from_sink(Count source, Count sink) {
  // Reverse BFS over residual arcs: u gets distance d + 1 when its arc
  // into a distance-d node w has residual capacity — reverse_head_ lists
  // exactly those u per slot of w. Every node closer than the source is
  // labelled by the time the source is, so the search stops there. The
  // sentinel entry dist_[num_nodes] reads as labelled.
  dist_.assign(num_nodes_ + 1, kNoLevel);
  dist_[num_nodes_] = 0;
  dist_[sink] = 0;
  queue_.clear();
  queue_.push_back(sink);
  for (std::size_t pos = 0; pos < queue_.size(); ++pos) {
    const Count w = queue_[pos];
    const Count d = dist_[w] + 1;
    const Count end = first_[w + 1];
    for (Count k = first_[w]; k < end; ++k) {
      const Count u = reverse_head_[k];
      if (dist_[u] != kNoLevel) continue;
      dist_[u] = d;
      if (u == source) return true;
      queue_.push_back(u);
    }
  }
  return false;
}

FlowNetwork::Capacity FlowNetwork::blocking_flow(Count source, Count sink) {
  // One DFS per phase along arcs that step exactly one label closer to
  // the sink. After an augmentation it resumes from the tail of the first
  // saturated arc; a node with no admissible arc left is unlabelled so no
  // later path enters it. Current-arc pointers make the phase O(V E).
  iter_.assign(first_.begin(), first_.end() - 1);
  path_.clear();
  Capacity total = 0;
  Count u = source;
  for (;;) {
    if (u == sink) {
      Capacity sent = kInfiniteCapacity;
      for (const Count k : path_) sent = std::min(sent, slots_[k].residual);
      std::size_t keep = path_.size();
      for (std::size_t i = 0; i < path_.size(); ++i) {
        Slot& slot = slots_[path_[i]];
        slot.residual -= sent;
        slots_[slot.partner].residual += sent;
        update_reverse_head(path_[i]);
        update_reverse_head(slot.partner);
        if (slot.residual == 0 && keep == path_.size()) keep = i;
      }
      total += sent;
      path_.resize(keep);
      u = path_.empty() ? source : slots_[path_.back()].to;
      continue;
    }
    const Count end = first_[u + 1];
    const Count next_level = dist_[u] - 1;
    Count k = iter_[u];
    while (k < end && (slots_[k].residual <= 0 ||
                       dist_[slots_[k].to] != next_level)) {
      ++k;
    }
    iter_[u] = k;
    if (k < end) {
      path_.push_back(k);
      u = slots_[k].to;
      continue;
    }
    dist_[u] = kNoLevel;  // dead for the rest of the phase
    if (path_.empty()) break;
    path_.pop_back();
    u = path_.empty() ? source : slots_[path_.back()].to;
    ++iter_[u];
  }
  return total;
}

FlowNetwork::Capacity FlowNetwork::max_flow(Count source, Count sink) {
  FHP_REQUIRE(source < num_nodes() && sink < num_nodes(),
              "terminal out of range");
  FHP_REQUIRE(source != sink, "source and sink must differ");
  FHP_REQUIRE(!solved_, "network already solved");
  solved_ = true;
  source_ = source;

  sort_slots_by_tail();
  Capacity total = 0;
  while (label_from_sink(source, sink)) total += blocking_flow(source, sink);
  return total;
}

std::vector<std::uint8_t> FlowNetwork::min_cut_side() const {
  FHP_REQUIRE(solved_, "call max_flow() first");
  std::vector<std::uint8_t> side(num_nodes(), 0);
  std::vector<Count> queue{source_};
  side[source_] = 1;
  for (std::size_t headpos = 0; headpos < queue.size(); ++headpos) {
    const Count u = queue[headpos];
    for (Count k = first_[u]; k < first_[u + 1]; ++k) {
      const Slot& slot = slots_[k];
      if (slot.residual > 0 && !side[slot.to]) {
        side[slot.to] = 1;
        queue.push_back(slot.to);
      }
    }
  }
  return side;
}

}  // namespace fhp

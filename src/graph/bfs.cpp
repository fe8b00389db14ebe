#include "graph/bfs.hpp"

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace fhp {

namespace {

/// Per-call edge-scan tally, flushed to the (atomic) obs counters once at
/// the end of a traversal so the inner loops stay contention-free.
struct ScanTally {
  long long topdown = 0;   ///< neighbor inspections in top-down steps
  long long bottomup = 0;  ///< neighbor inspections in bottom-up steps
  long long switches = 0;  ///< direction changes between consecutive steps

  void flush() const {
    FHP_COUNTER_ADD("bfs/edges_scanned_topdown", topdown);
    FHP_COUNTER_ADD("bfs/edges_scanned_bottomup", bottomup);
    FHP_COUNTER_ADD("bfs/frontier_switches", switches);
  }
};

/// Rebuilds the frontier bitset from a flat frontier array.
void fill_frontier_bits(const std::vector<VertexId>& frontier, VertexId n,
                        Workspace& ws) {
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  ws.ensure_capacity(ws.frontier_bits, words);
  ws.frontier_bits.assign(words, 0);
  for (VertexId u : frontier) {
    ws.frontier_bits[u >> 6] |= std::uint64_t{1} << (u & 63);
  }
}

inline bool test_bit(const std::vector<std::uint64_t>& bits, VertexId v) {
  return (bits[v >> 6] >> (v & 63)) & 1U;
}

/// The direction heuristic (Beamer): expand bottom-up when the frontier's
/// adjacency mass dominates the unexplored mass (alpha) AND the frontier
/// is a sizable fraction of the graph (beta — bounds the number of
/// O(n)-scan bottom-up levels on deep graphs). Every input is a
/// relabeling-invariant quantity, so the decision — and with it the
/// level-set evolution — is identical on any isomorphic relabeling.
inline bool choose_bottom_up(const BfsKernelOptions& kernel,
                             std::uint64_t frontier_deg,
                             std::uint64_t unexplored_deg,
                             std::size_t frontier_size, VertexId n) {
  return kernel.direction_optimizing && n >= 64 &&
         frontier_deg * kernel.alpha > unexplored_deg &&
         frontier_size * kernel.beta > n;
}

}  // namespace

BfsResult bfs(const Graph& g, VertexId source) {
  // Thin wrapper over the workspace engine: one traversal implementation
  // serves both APIs; this overload only pays to copy the labels out.
  Workspace ws;
  const BfsSummary summary = bfs_scan(g, source, ws);
  BfsResult result;
  result.distance.resize(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    result.distance[v] = ws.distance.get(v);
  }
  result.farthest = summary.farthest;
  result.depth = summary.depth;
  result.reached = summary.reached;
  FHP_COUNTER_ADD("workspace/buffer_grows",
                  static_cast<long long>(ws.grow_events()));
  return result;
}

BfsSummary bfs_scan(const Graph& g, VertexId source, Workspace& ws,
                    const BfsKernelOptions& kernel) {
  FHP_COUNTER_ADD("bfs/calls", 1);
  FHP_REQUIRE(source < g.num_vertices(), "BFS source out of range");
  const VertexId n = g.num_vertices();
  BfsSummary result;
  ws.distance.reset(n, kUnreachable);
  ws.distance.set(source, 0);
  result.reached = 1;

  std::vector<VertexId>& curr = ws.queue;
  std::vector<VertexId>& next = ws.next;
  ws.reset_buffer(curr, n);
  ws.reset_buffer(next, n);
  curr.push_back(source);

  ScanTally tally;
  std::uint64_t unexplored_deg = 2 * g.num_edges() - g.degree(source);
  std::uint64_t frontier_deg = g.degree(source);
  std::uint32_t level = 0;
  bool was_bottom_up = false;
  while (true) {
    const bool bottom_up = choose_bottom_up(kernel, frontier_deg,
                                            unexplored_deg, curr.size(), n);
    if (bottom_up != was_bottom_up) {
      ++tally.switches;
      was_bottom_up = bottom_up;
    }
    next.clear();
    std::uint64_t next_deg = 0;
    if (bottom_up) {
      fill_frontier_bits(curr, n, ws);
      for (VertexId v = 0; v < n; ++v) {
        if (ws.distance.is_set(v)) continue;
        for (VertexId w : g.neighbors(v)) {
          ++tally.bottomup;
          if (test_bit(ws.frontier_bits, w)) {
            ws.distance.set(v, level + 1);
            next.push_back(v);
            next_deg += g.degree(v);
            break;
          }
        }
      }
    } else {
      for (VertexId u : curr) {
        for (VertexId w : g.neighbors(u)) {
          ++tally.topdown;
          if (!ws.distance.is_set(w)) {
            ws.distance.set(w, level + 1);
            next.push_back(w);
            next_deg += g.degree(w);
          }
        }
      }
    }
    if (next.empty()) break;
    ++level;
    result.reached += static_cast<VertexId>(next.size());
    unexplored_deg -= next_deg;
    frontier_deg = next_deg;
    curr.swap(next);
  }

  // `curr` is the last non-empty level == the set at maximum distance,
  // which is the same set whichever directions expanded the levels;
  // elect the smallest id (or smallest caller-supplied rank) from it.
  result.depth = level;
  result.farthest = curr.front();
  for (VertexId u : curr) {
    if (kernel.tie_rank != nullptr
            ? kernel.tie_rank[u] < kernel.tie_rank[result.farthest]
            : u < result.farthest) {
      result.farthest = u;
    }
  }

  tally.flush();
  FHP_COUNTER_ADD("bfs/vertices_reached",
                  static_cast<long long>(result.reached));
  FHP_COUNTER_ADD("bfs/levels_visited", static_cast<long long>(result.depth));
  return result;
}

DiameterPair first_sweep(const Graph& g, VertexId start, Workspace& ws,
                         const BfsKernelOptions& kernel) {
  FHP_TRACE_SCOPE("diameter");
  const BfsSummary r = bfs_scan(g, start, ws, kernel);
  return {start, r.farthest, r.depth};
}

DiameterPair continue_sweeps(const Graph& g, VertexId v, int sweeps,
                             Workspace& ws, const BfsKernelOptions& kernel) {
  FHP_TRACE_SCOPE("diameter");
  FHP_REQUIRE(sweeps >= 2, "continue_sweeps runs sweeps 2..k");
  DiameterPair pair;
  pair.t = v;
  for (int sweep = 1; sweep < sweeps; ++sweep) {
    const BfsSummary r = bfs_scan(g, pair.t, ws, kernel);
    if (r.depth <= pair.distance && sweep > 1) break;  // converged
    pair.s = pair.t;
    pair.t = r.farthest;
    pair.distance = r.depth;
  }
  return pair;
}

DiameterPair longest_path_from(const Graph& g, VertexId start, int sweeps,
                               Workspace& ws, const BfsKernelOptions& kernel) {
  FHP_REQUIRE(sweeps >= 1, "need at least one BFS sweep");
  const DiameterPair first = first_sweep(g, start, ws, kernel);
  return sweeps == 1 ? first : continue_sweeps(g, first.t, sweeps, ws, kernel);
}

DiameterPair longest_path_from(const Graph& g, VertexId start, int sweeps) {
  Workspace ws;
  const DiameterPair pair = longest_path_from(g, start, sweeps, ws);
  FHP_COUNTER_ADD("workspace/buffer_grows",
                  static_cast<long long>(ws.grow_events()));
  return pair;
}

DiameterPair random_longest_path(const Graph& g, Rng& rng, int sweeps) {
  FHP_REQUIRE(g.num_vertices() > 0, "graph is empty");
  const auto start = static_cast<VertexId>(rng.next_below(g.num_vertices()));
  return longest_path_from(g, start, sweeps);
}

void bidirectional_bfs_cut(const Graph& g, VertexId s, VertexId t,
                           Workspace& ws, BidirectionalCut& out,
                           const BfsKernelOptions& kernel) {
  FHP_TRACE_SCOPE("initial_cut");
  FHP_COUNTER_ADD("bfs/bidirectional_cuts", 1);
  FHP_REQUIRE(s < g.num_vertices() && t < g.num_vertices(),
              "seed out of range");
  FHP_REQUIRE(s != t, "seeds must be distinct");
  const VertexId n = g.num_vertices();
  ws.ensure_capacity(out.side, n);
  out.side.assign(n, std::uint8_t{2});

  // Two frontier queues; expand one full level of the smaller region at a
  // time so that regions stay close in size even when the seeds sit in
  // unbalanced positions of the graph. The frontiers and the next-level
  // staging buffer live in the workspace: clear() between levels keeps
  // their capacity, so a warmed-up lane runs the loop allocation-free.
  // Each expansion step claims exactly the unclaimed neighbors of the
  // chosen region's frontier, either top-down (scan the frontier's rows)
  // or bottom-up (scan unclaimed vertices for a frontier bit) — the same
  // set either way, so direction never changes the cut.
  ws.reset_buffer(ws.frontier[0], 1);
  ws.reset_buffer(ws.frontier[1], 1);
  ws.frontier[0].push_back(s);
  ws.frontier[1].push_back(t);
  out.side[s] = 0;
  out.side[t] = 1;
  out.reached_s = 1;
  out.reached_t = 1;

  ScanTally tally;
  std::uint64_t unclaimed_deg = 2 * g.num_edges() - g.degree(s) - g.degree(t);
  std::uint64_t frontier_deg[2] = {g.degree(s), g.degree(t)};
  bool was_bottom_up = false;
  ws.next.clear();
  while (!ws.frontier[0].empty() || !ws.frontier[1].empty()) {
    int which;
    if (ws.frontier[0].empty()) {
      which = 1;
    } else if (ws.frontier[1].empty()) {
      which = 0;
    } else {
      which = (out.reached_s <= out.reached_t) ? 0 : 1;
    }
    std::vector<VertexId>& frontier = ws.frontier[which];
    const bool bottom_up = choose_bottom_up(
        kernel, frontier_deg[which], unclaimed_deg, frontier.size(), n);
    if (bottom_up != was_bottom_up) {
      ++tally.switches;
      was_bottom_up = bottom_up;
    }
    ws.next.clear();
    std::uint64_t next_deg = 0;
    VertexId claimed = 0;
    if (bottom_up) {
      fill_frontier_bits(frontier, n, ws);
      for (VertexId v = 0; v < n; ++v) {
        if (out.side[v] != 2) continue;
        for (VertexId w : g.neighbors(v)) {
          ++tally.bottomup;
          if (test_bit(ws.frontier_bits, w)) {
            out.side[v] = static_cast<std::uint8_t>(which);
            ++claimed;
            next_deg += g.degree(v);
            ws.next.push_back(v);
            break;
          }
        }
      }
    } else {
      for (VertexId u : frontier) {
        for (VertexId w : g.neighbors(u)) {
          ++tally.topdown;
          if (out.side[w] != 2) continue;
          out.side[w] = static_cast<std::uint8_t>(which);
          ++claimed;
          next_deg += g.degree(w);
          ws.next.push_back(w);
        }
      }
    }
    if (which == 0) {
      out.reached_s += claimed;
    } else {
      out.reached_t += claimed;
    }
    unclaimed_deg -= next_deg;
    frontier_deg[which] = next_deg;
    frontier.swap(ws.next);
  }
  tally.flush();
}

BidirectionalCut bidirectional_bfs_cut(const Graph& g, VertexId s, VertexId t) {
  Workspace ws;
  BidirectionalCut cut;
  bidirectional_bfs_cut(g, s, t, ws, cut);
  FHP_COUNTER_ADD("workspace/buffer_grows",
                  static_cast<long long>(ws.grow_events()));
  return cut;
}

}  // namespace fhp

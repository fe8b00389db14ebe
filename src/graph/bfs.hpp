/// \file bfs.hpp
/// Breadth-first-search toolkit for the intersection graph.
///
/// Algorithm I's first two steps are pure BFS machinery (paper §2):
/// find a pseudo-diameter pair by a random longest BFS path, then grow
/// regions from both endpoints simultaneously until they meet to define a
/// graph cut. Everything here is O(V + E) per sweep.
///
/// The kernels are *direction-optimizing* (Beamer et al., SC'12): each
/// level is expanded either top-down (scan the frontier's adjacency rows)
/// or bottom-up (scan unvisited vertices for a frontier neighbor, stopping
/// at the first hit), switching on the standard frontier-size heuristic.
/// Both directions produce the same level sets, so every result — distance
/// labels, depth, reached counts, region claims — is identical whichever
/// mix of steps ran; `bench_bfs_kernels` asserts this and records the edge
/// scans saved. Frontiers are flat arrays swapped between levels (no
/// per-level vector churn); bottom-up uses a per-vertex bitset rebuilt
/// from the flat frontier (`Workspace::frontier_bits`).
///
/// Tie-breaking contract: wherever a single "farthest" vertex must be
/// elected from the set at maximum distance, it is the one with the
/// smallest vertex id (or smallest `BfsKernelOptions::tie_rank` when a
/// caller traverses a relabeled graph and wants ties broken in the
/// original numbering — see graph/reorder.hpp). The set at maximum
/// distance is direction- and relabeling-invariant, so this rule makes
/// every kernel and direction agree deterministically.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "util/workspace.hpp"

namespace fhp {

/// Distance label for unreachable vertices.
inline constexpr std::uint32_t kUnreachable = 0xffffffffU;

/// Tuning of the direction-optimizing traversal engine. Results are
/// bit-identical at any setting (the heuristic only chooses how a level is
/// expanded, never what it contains), so these are pure performance knobs.
///
/// The defaults are NOT the classic Beamer (14, 24) scale-free settings:
/// intersection graphs here are near-uniform-degree with non-trivial
/// diameter, where an eager alpha re-scans the unvisited set level after
/// level and can triple total edge inspections (grids, sparse planted
/// bisections). An alpha/beta sweep over the bench_bfs_kernels shapes
/// found (2, 24) the only corner that never loses to pure top-down:
/// 1.3-1.7x fewer scans on planted bisections, ~4x on standard-cell
/// circuits, parity on grids.
struct BfsKernelOptions {
  /// Allow bottom-up steps. Off = always top-down (the historical kernel;
  /// kept selectable for differential benching in bench_bfs_kernels).
  bool direction_optimizing = true;
  /// Go bottom-up when frontier_degree * alpha > unexplored_degree.
  std::uint32_t alpha = 2;
  /// ... and the frontier holds more than n / beta vertices (bounds the
  /// number of O(n)-scan bottom-up levels on deep graphs).
  std::uint32_t beta = 24;
  /// Optional tie-break ranks for `farthest`: when set (one rank per
  /// vertex, all distinct), the farthest vertex minimizes tie_rank instead
  /// of the vertex id. Callers running on a permuted graph pass the
  /// inverse permutation so ties resolve in original-id space.
  const VertexId* tie_rank = nullptr;
};

/// Result of a single-source BFS.
struct BfsResult {
  std::vector<std::uint32_t> distance;  ///< kUnreachable if not reached
  VertexId farthest = kInvalidVertex;   ///< smallest id at maximum distance
  std::uint32_t depth = 0;              ///< eccentricity within the component
  VertexId reached = 0;                 ///< number of vertices reached
};

/// Full BFS from \p source. Among vertices at maximum distance, `farthest`
/// is the one with the smallest vertex id (deterministic). Thin wrapper:
/// runs bfs_scan() on a local workspace and copies the labels out.
[[nodiscard]] BfsResult bfs(const Graph& g, VertexId source);

/// Summary of a BFS whose distance labels live in a Workspace rather than
/// in a per-call vector.
struct BfsSummary {
  VertexId farthest = kInvalidVertex;  ///< smallest id at maximum distance
  std::uint32_t depth = 0;             ///< eccentricity within the component
  VertexId reached = 0;                ///< number of vertices reached
};

/// Allocation-free direction-optimizing BFS from \p source: distance
/// labels are written into `ws.distance` (epoch-cleared, so the call is
/// O(V_reached + E_scanned), not O(n) setup) and the frontiers reuse
/// `ws.queue` / `ws.next` / `ws.frontier_bits`. On return
/// `ws.distance.get(v)` is d(source, v), or kUnreachable for unreached v,
/// valid until the next use of ws.distance.
BfsSummary bfs_scan(const Graph& g, VertexId source, Workspace& ws,
                    const BfsKernelOptions& kernel = {});

/// A pseudo-diameter endpoint pair obtained by BFS sweeps.
struct DiameterPair {
  VertexId s = kInvalidVertex;
  VertexId t = kInvalidVertex;
  std::uint32_t distance = 0;  ///< d(s, t): a lower bound on the diameter
};

/// The paper's "random longest BFS path": BFS from a random vertex, take
/// the farthest vertex v; BFS again from v and take its farthest vertex w.
/// (v, w) is within O(1) of a diametral pair for bounded-degree random
/// graphs. \p sweeps >= 1 controls how many alternating refinement sweeps
/// to run (2 = the classic double sweep).
[[nodiscard]] DiameterPair random_longest_path(const Graph& g, Rng& rng,
                                               int sweeps = 2);

/// Like random_longest_path but starting from a given vertex (used by the
/// multi-start driver to derandomize tests).
[[nodiscard]] DiameterPair longest_path_from(const Graph& g, VertexId start,
                                             int sweeps = 2);

/// Workspace-backed longest_path_from: same sweeps, same result, but every
/// BFS runs through bfs_scan() on \p ws (zero allocations once warm).
/// Composed of first_sweep() and, for sweeps >= 2, continue_sweeps().
[[nodiscard]] DiameterPair longest_path_from(const Graph& g, VertexId start,
                                             int sweeps, Workspace& ws,
                                             const BfsKernelOptions& kernel =
                                                 {});

/// The first sweep of longest_path_from: one BFS from \p start, returning
/// (start, v, d(start, v)) for its farthest vertex v. This is the whole
/// pair when sweeps == 1.
[[nodiscard]] DiameterPair first_sweep(const Graph& g, VertexId start,
                                       Workspace& ws,
                                       const BfsKernelOptions& kernel = {});

/// Sweeps 2..\p sweeps of longest_path_from, given the first sweep's
/// farthest vertex \p v (precondition: sweeps >= 2). Everything after the
/// first BFS — including the convergence break — depends on v alone, so
/// longest_path_from(g, start, k) == continue_sweeps(g, first_sweep(g,
/// start).t, k) for every start that reaches v: multi-start drivers run
/// this once per distinct v.
[[nodiscard]] DiameterPair continue_sweeps(const Graph& g, VertexId v,
                                           int sweeps, Workspace& ws,
                                           const BfsKernelOptions& kernel = {});

/// Result of growing BFS regions from two seeds simultaneously.
struct BidirectionalCut {
  /// side[v]: 0 = reached from s first, 1 = reached from t first,
  /// 2 = unreached (v lies in a different component).
  std::vector<std::uint8_t> side;
  VertexId reached_s = 0;  ///< vertices claimed by the s region
  VertexId reached_t = 0;  ///< vertices claimed by the t region
};

/// Grows BFS level-by-level from \p s and \p t alternately until every
/// vertex in their component(s) is claimed; ties (same level reachable from
/// both) go to the region whose level was expanded first, with the smaller
/// region expanding first to keep the two sides near-equal in vertex count.
/// This realizes the paper's "BFS from two distant nodes until the two
/// expanding sets meet to define a cutline". The claimed sets depend only
/// on region sizes and adjacency — never on vertex numbering or expansion
/// direction — so the cut is invariant under graph relabeling.
[[nodiscard]] BidirectionalCut bidirectional_bfs_cut(const Graph& g, VertexId s,
                                                     VertexId t);

/// Workspace-backed bidirectional cut: identical result to the allocating
/// overload, but the two frontier queues and the next-level staging buffer
/// are hoisted into \p ws (clear()ed between levels, capacity persists) and
/// the side labels are written into \p out.side reusing its capacity. The
/// only steady-state allocation is out.side's first growth per lane.
void bidirectional_bfs_cut(const Graph& g, VertexId s, VertexId t,
                           Workspace& ws, BidirectionalCut& out,
                           const BfsKernelOptions& kernel = {});

}  // namespace fhp

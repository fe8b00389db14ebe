/// \file test_helpers.hpp
/// Shared fixtures: tiny reference implementations (brute-force min cut,
/// brute-force vertex cover), canned instances (paths, cliques, the
/// reconstructed paper example), and small random generators for property
/// tests.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "hypergraph/hypergraph.hpp"
#include "partition/partition.hpp"
#include "util/rng.hpp"

namespace fhp::test {

/// A temp-root path no other test case can be using: \p stem plus this
/// process's pid and a per-process counter. ctest runs every case as its
/// own process, in parallel under -j, so a fixed name would let one case's
/// TearDown delete another's files.
inline std::filesystem::path unique_temp_path(const std::string& stem) {
  static std::atomic<int> counter{0};
  std::string name = stem;
  name += '_';
  name += std::to_string(::getpid());
  name += '_';
  name += std::to_string(counter.fetch_add(1));
  return std::filesystem::temp_directory_path() / name;
}

/// Chain netlist: modules 0..n-1, nets {i, i+1}. Its intersection graph is
/// a path of n-1 vertices.
inline Hypergraph path_hypergraph(VertexId n) {
  HypergraphBuilder b;
  b.add_vertices(n);
  for (VertexId i = 0; i + 1 < n; ++i) b.add_edge({i, i + 1});
  return std::move(b).build();
}

/// Star netlist: one hub, nets {hub, i}.
inline Hypergraph star_hypergraph(VertexId leaves) {
  HypergraphBuilder b;
  const VertexId hub = b.add_vertex();
  for (VertexId i = 0; i < leaves; ++i) {
    const VertexId leaf = b.add_vertex();
    b.add_edge({hub, leaf});
  }
  return std::move(b).build();
}

/// Two cliques of `half` modules (pairwise 2-pin nets) joined by `bridges`
/// crossing nets. Optimal cut = bridges.
inline Hypergraph two_cluster_hypergraph(VertexId half, EdgeId bridges) {
  HypergraphBuilder b;
  b.add_vertices(2 * half);
  for (VertexId c = 0; c < 2; ++c) {
    const VertexId base = c * half;
    for (VertexId i = 0; i < half; ++i) {
      for (VertexId j = i + 1; j < half; ++j) {
        b.add_edge({base + i, base + j});
      }
    }
  }
  for (EdgeId k = 0; k < bridges; ++k) {
    b.add_edge({static_cast<VertexId>(k % half),
                static_cast<VertexId>(half + (k + 1) % half)});
  }
  return std::move(b).build();
}

/// Reconstruction of the paper's §2 worked example (Figure 4): 12 modules,
/// 12 signals a..l. The source text is partially illegible; this instance
/// is built to satisfy every stated property: final partition separates
/// {1,2,4,8,11,12} from {3,5,6,7,9,10} with only signals c and h crossing
/// (cutsize 2), boundary set {c,d,e,f,g,h}, winners {d,e,f,g}, and k/l a
/// far-apart pair in G. Modules are 0-based (module m -> id m-1); signals
/// are indexed a=0 .. l=11.
inline Hypergraph figure4_hypergraph() {
  auto m = [](VertexId module) { return module - 1; };
  HypergraphBuilder b;
  b.add_vertices(12);
  b.add_edge({m(1), m(2), m(11)});          // a
  b.add_edge({m(2), m(4), m(11)});          // b
  b.add_edge({m(1), m(3), m(4), m(12)});    // c  (crosses: 3 right)
  b.add_edge({m(3), m(5)});                 // d  (winner, right)
  b.add_edge({m(5), m(6), m(7)});           // e  (winner, right)
  b.add_edge({m(6), m(3), m(7)});           // f  (winner, right)
  b.add_edge({m(3), m(5), m(9), m(10)});    // g  (winner, right)
  b.add_edge({m(6), m(7), m(8)});           // h  (crosses: 8 left)
  b.add_edge({m(6), m(7), m(9), m(10)});    // i
  b.add_edge({m(4), m(8), m(12)});          // j  (left)
  b.add_edge({m(1), m(2)});                 // k  (left extreme)
  b.add_edge({m(9), m(10)});                // l  (right extreme)
  return std::move(b).build();
}

/// The expected optimal sides of figure4_hypergraph() (module 1-based ids
/// {1,2,4,8,11,12} left).
inline std::vector<std::uint8_t> figure4_expected_sides() {
  std::vector<std::uint8_t> sides(12, 1);
  for (VertexId module : {1, 2, 4, 8, 11, 12}) sides[module - 1] = 0;
  return sides;
}

/// Erdos–Renyi G(n, p) random graph.
inline Graph random_graph(VertexId n, double p, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (rng.next_bool(p)) b.add_edge(u, v);
    }
  }
  return std::move(b).build();
}

/// Random bipartite graph with `left` + `right` vertices (left ids first)
/// and edge probability p. Returns the graph and its 2-coloring.
inline std::pair<Graph, std::vector<std::uint8_t>> random_bipartite_graph(
    VertexId left, VertexId right, double p, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(left + right);
  for (VertexId u = 0; u < left; ++u) {
    for (VertexId v = 0; v < right; ++v) {
      if (rng.next_bool(p)) b.add_edge(u, left + v);
    }
  }
  std::vector<std::uint8_t> side(left + right, 0);
  for (VertexId v = left; v < left + right; ++v) side[v] = 1;
  return {std::move(b).build(), std::move(side)};
}

/// Connected random graph: G(n, p) plus a random spanning path.
inline Graph connected_random_graph(VertexId n, double p, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n);
  std::vector<VertexId> order(n);
  for (VertexId i = 0; i < n; ++i) order[i] = i;
  rng.shuffle(order);
  for (VertexId i = 0; i + 1 < n; ++i) b.add_edge(order[i], order[i + 1]);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (rng.next_bool(p)) b.add_edge(u, v);
    }
  }
  return std::move(b).build();
}

/// Brute-force minimum vertex cover size (exponential; <= ~24 vertices).
inline std::uint32_t brute_force_min_vertex_cover(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::uint32_t best = n;
  for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    bool covers = true;
    for (VertexId u = 0; u < n && covers; ++u) {
      for (VertexId v : g.neighbors(u)) {
        if (v < u) continue;  // check each edge once
        if (!((mask >> u) & 1) && !((mask >> v) & 1)) {
          covers = false;
          break;
        }
      }
    }
    if (!covers) continue;
    best = std::min(best,
                    static_cast<std::uint32_t>(__builtin_popcountll(mask)));
  }
  return best;
}

/// Brute-force minimum proper-cut size of a hypergraph (<= ~16 modules).
/// If max_imbalance >= 0, only partitions with cardinality imbalance at
/// most max_imbalance are considered.
inline EdgeId brute_force_min_cut(const Hypergraph& h,
                                  std::int64_t max_imbalance = -1) {
  const VertexId n = h.num_vertices();
  EdgeId best = std::numeric_limits<EdgeId>::max();
  for (std::uint64_t mask = 1; mask + 1 < (1ULL << n); ++mask) {
    const int left = __builtin_popcountll(mask);
    const int right = static_cast<int>(n) - left;
    if (max_imbalance >= 0 && std::abs(left - right) > max_imbalance) continue;
    EdgeId cut = 0;
    for (EdgeId e = 0; e < h.num_edges(); ++e) {
      bool l = false;
      bool r = false;
      for (VertexId v : h.pins(e)) {
        ((mask >> v) & 1 ? l : r) = true;
      }
      if (l && r) ++cut;
    }
    best = std::min(best, cut);
  }
  return best;
}

/// Counts cut hyperedges of `h` under `sides` from scratch.
inline EdgeId count_cut_edges(const Hypergraph& h,
                              const std::vector<std::uint8_t>& sides) {
  EdgeId cut = 0;
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    bool l = false;
    bool r = false;
    for (VertexId v : h.pins(e)) {
      (sides[v] == 0 ? l : r) = true;
    }
    if (l && r) ++cut;
  }
  return cut;
}

}  // namespace fhp::test

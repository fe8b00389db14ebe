#include "core/algorithm1.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "core/boundary.hpp"
#include "core/intersection.hpp"
#include "graph/bfs.hpp"
#include "graph/components.hpp"
#include "graph/reorder.hpp"
#include "hypergraph/transform.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace fhp {

namespace {

/// Forced-side markers for modules during assembly.
constexpr std::uint8_t kSide0 = 0;
constexpr std::uint8_t kSide1 = 1;
constexpr std::uint8_t kPending = 2;  ///< only boundary nets touch it
constexpr std::uint8_t kFree = 3;     ///< no (filtered) nets touch it

/// Lexicographic "is better" for two results under an objective.
bool better(const Algorithm1Result& a, const Algorithm1Result& b,
            Objective objective) {
  if (objective == Objective::kQuotient) {
    if (a.metrics.quotient_cut != b.metrics.quotient_cut) {
      return a.metrics.quotient_cut < b.metrics.quotient_cut;
    }
    return a.metrics.cut_edges < b.metrics.cut_edges;
  }
  if (a.metrics.cut_edges != b.metrics.cut_edges) {
    return a.metrics.cut_edges < b.metrics.cut_edges;
  }
  return a.metrics.weight_imbalance < b.metrics.weight_imbalance;
}

/// Distributes the weights of \p vertices (descending weight) onto the
/// lighter of the running side weights; writes sides in-place. \p order is
/// caller-owned sort scratch (the hot path hands in its workspace buffer).
void balance_assign(const Hypergraph& h, const std::vector<VertexId>& vertices,
                    std::vector<std::uint8_t>& sides, Weight weights[2],
                    std::vector<VertexId>& order) {
  order.assign(vertices.begin(), vertices.end());
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    const Weight wa = h.vertex_weight(a);
    const Weight wb = h.vertex_weight(b);
    return wa != wb ? wa > wb : a < b;
  });
  for (VertexId v : order) {
    const std::uint8_t s = (weights[0] <= weights[1]) ? kSide0 : kSide1;
    sides[v] = s;
    weights[s] += h.vertex_weight(v);
  }
}

/// Allocating convenience overload for the cold paths.
void balance_assign(const Hypergraph& h, const std::vector<VertexId>& vertices,
                    std::vector<std::uint8_t>& sides, Weight weights[2]) {
  std::vector<VertexId> order;
  balance_assign(h, vertices, sides, weights, order);
}

/// Guarantees both sides are nonempty by flipping the lightest vertex of
/// the full side if needed (only reachable on tiny or degenerate inputs).
void ensure_proper(const Hypergraph& h, std::vector<std::uint8_t>& sides) {
  VertexId counts[2] = {0, 0};
  for (std::uint8_t s : sides) ++counts[s];
  if (counts[0] > 0 && counts[1] > 0) return;
  const std::uint8_t full = counts[0] == 0 ? kSide1 : kSide0;
  VertexId lightest = kInvalidVertex;
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    if (sides[v] != full) continue;
    if (lightest == kInvalidVertex ||
        h.vertex_weight(v) < h.vertex_weight(lightest)) {
      lightest = v;
    }
  }
  FHP_ASSERT(lightest != kInvalidVertex, "no vertex to rebalance with");
  sides[lightest] = static_cast<std::uint8_t>(1 - full);
}

}  // namespace

Algorithm1Context::Algorithm1Context(const Hypergraph& h,
                                     const Algorithm1Options& options)
    : h_(&h), options_(options) {
  FHP_REQUIRE(h.num_vertices() >= 2,
              "a proper cut needs at least two modules");
  const int lanes = resolve_threads(options.threads);
  if (lanes > 1) owned_pool_ = std::make_unique<ThreadPool>(lanes);
  pool_ = owned_pool_.get();
  {
    FHP_TRACE_SCOPE("filter");
    if (options.large_edge_threshold > 0) {
      FHP_REQUIRE(options.large_edge_threshold >= 2,
                  "a net-size threshold below 2 drops every net");
      filtered_ =
          filter_large_edges(h, options.large_edge_threshold).hypergraph;
    } else {
      filtered_ = filter_trivial_edges(h).hypergraph;
    }
  }
  FHP_COUNTER_ADD("alg1/filtered_nets",
                  static_cast<long long>(filtered_edge_count()));
  IntersectionOptions intersection_options;
  intersection_options.pool = pool_;
  g_ = intersection_graph(filtered_, intersection_options);
  {
    FHP_TRACE_SCOPE("components");
    const Components comps = connected_components(g_);
    g_component_ = comps.label;
    g_component_count_ = comps.count();
  }
  degenerate_ = (g_.num_vertices() == 0) || (g_component_count_ > 1);
  prepare_traversal();
}

Algorithm1Context::Algorithm1Context(const Hypergraph& block,
                                     Hypergraph filtered, Graph g,
                                     ThreadPool* pool,
                                     const Algorithm1Options& options)
    : h_(&block),
      options_(options),
      pool_(pool),
      filtered_(std::move(filtered)),
      g_(std::move(g)) {
  FHP_REQUIRE(block.num_vertices() >= 2,
              "a proper cut needs at least two modules");
  FHP_ASSERT(g_.num_vertices() > 0, "a block slice holds at least one net");
  FHP_COUNTER_ADD("alg1/filtered_nets",
                  static_cast<long long>(filtered_edge_count()));
  g_component_.assign(g_.num_vertices(), 0);
  g_component_count_ = 1;
  prepare_traversal();
}

void Algorithm1Context::prepare_traversal() {
  if (!options_.reorder || degenerate_ || g_.num_vertices() < 2) return;
  // Locality permutation for the BFS-heavy steps (graph/reorder.hpp).
  // Results are mapped back to original net ids immediately after the
  // initial cut, so everything downstream — memo keys, boundary
  // extraction, completion, reported cuts — lives in original ids and
  // the partition is provably unaffected (see find_pair/run_from_pair).
  FHP_TRACE_SCOPE("reorder");
  Timer timer;
  perm_ = degree_bucketed_bfs_order(g_);
  if (!perm_.is_identity()) {
    g_perm_ = g_.permuted(perm_);
    reordered_ = true;
  }
  FHP_GAUGE_SET("algorithm1/reorder_ms", timer.seconds() * 1e3);
}

Algorithm1Result Algorithm1Context::run_degenerate() const {
  FHP_TRACE_SCOPE("degenerate");
  FHP_COUNTER_ADD("alg1/degenerate_shortcuts", 1);
  const Hypergraph& h = *h_;
  Algorithm1Result result;
  result.disconnected_shortcut = true;
  result.filtered_edges = filtered_edge_count();
  result.sides.assign(h.num_vertices(), kSide0);

  // Blocks of modules glued together by a G-component; modules with no
  // surviving nets float freely.
  std::vector<std::vector<VertexId>> blocks(g_component_count_);
  std::vector<std::uint8_t> placed(h.num_vertices(), 0);
  for (EdgeId e = 0; e < filtered_.num_edges(); ++e) {
    const VertexId comp = g_component_[e];
    for (VertexId v : filtered_.pins(e)) {
      if (!placed[v]) {
        placed[v] = 1;
        blocks[comp].push_back(v);
      }
    }
  }
  std::vector<VertexId> free_vertices;
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    if (!placed[v]) free_vertices.push_back(v);
  }

  // If one block dominates the total weight, packing whole blocks cannot
  // come close to balance: bisect the dominant block with Algorithm I on
  // its slice of this context (its G-component is connected, so this does
  // not recurse into the degenerate path again) and treat its halves as
  // two blocks. The slice is the sub-instance a fresh Algorithm I run on
  // the induced block would build, so the halves are the same.
  {
    Weight total = 0;
    std::size_t heaviest = 0;
    Weight heaviest_weight = 0;
    std::vector<Weight> weight_of(blocks.size(), 0);
    for (std::size_t bidx = 0; bidx < blocks.size(); ++bidx) {
      for (VertexId v : blocks[bidx]) weight_of[bidx] += h.vertex_weight(v);
      total += weight_of[bidx];
      if (weight_of[bidx] > heaviest_weight) {
        heaviest_weight = weight_of[bidx];
        heaviest = bidx;
      }
    }
    for (VertexId v : free_vertices) total += h.vertex_weight(v);
    if (2 * heaviest_weight > total && blocks[heaviest].size() >= 2) {
      FHP_TRACE_SCOPE("block_bisect");
      FHP_COUNTER_ADD("alg1/runs", 1);
      BlockSlice block = slice(static_cast<VertexId>(heaviest));
      Algorithm1Options inner_options = options_;
      std::uint64_t sm = options_.seed;
      inner_options.seed = splitmix64(sm);
      inner_options.collect_trace = false;  // snapshots only at top level
      const Algorithm1Context inner(block.block, std::move(block.filtered),
                                    std::move(block.g), pool_,
                                    inner_options);
      const Algorithm1Result bisection = inner.run_starts();
      std::vector<VertexId> half0;
      std::vector<VertexId> half1;
      for (VertexId u = 0; u < block.kept_vertices.size(); ++u) {
        (bisection.sides[u] == 0 ? half0 : half1)
            .push_back(block.kept_vertices[u]);
      }
      blocks[heaviest] = std::move(half0);
      blocks.push_back(std::move(half1));
    }
  }

  // Pack blocks (largest weight first) onto the lighter side — a zero cut
  // on the filtered instance in the true c = 0 case, matching the paper's
  // observation; when the dominant block was bisected above, only its
  // internal cut is paid.
  std::vector<VertexId> block_order(blocks.size());
  std::iota(block_order.begin(), block_order.end(), 0U);
  std::vector<Weight> block_weight(blocks.size(), 0);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    for (VertexId v : blocks[b]) block_weight[b] += h.vertex_weight(v);
  }
  std::sort(block_order.begin(), block_order.end(),
            [&](VertexId a, VertexId b) {
              return block_weight[a] != block_weight[b]
                         ? block_weight[a] > block_weight[b]
                         : a < b;
            });
  Weight weights[2] = {0, 0};
  for (VertexId b : block_order) {
    const std::uint8_t s = (weights[0] <= weights[1]) ? kSide0 : kSide1;
    for (VertexId v : blocks[b]) result.sides[v] = s;
    weights[s] += block_weight[b];
  }
  balance_assign(h, free_vertices, result.sides, weights);
  ensure_proper(h, result.sides);

  const Bipartition partition(h, result.sides);
  result.metrics = compute_metrics(partition);
  return result;
}

Algorithm1Context::BlockSlice Algorithm1Context::slice(
    VertexId component) const {
  FHP_TRACE_SCOPE("block_slice");
  FHP_REQUIRE(component < g_component_count_, "component out of range");
  const Hypergraph& h = *h_;
  const std::uint32_t threshold = options_.large_edge_threshold;
  BlockSlice out;

  // Block modules: the pins of the component's nets, numbered ascending
  // (the numbering induced_subhypergraph gives them).
  std::vector<VertexId> vertex_map(h.num_vertices(), kInvalidVertex);
  for (EdgeId f = 0; f < filtered_.num_edges(); ++f) {
    if (g_component_[f] != component) continue;
    for (VertexId v : filtered_.pins(f)) vertex_map[v] = 0;
  }
  std::vector<Weight> vertex_weights;
  std::size_t pin_bound = 0;  // block incidences: a bound on either CSR
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    if (vertex_map[v] == kInvalidVertex) continue;
    vertex_map[v] = static_cast<VertexId>(out.kept_vertices.size());
    out.kept_vertices.push_back(v);
    vertex_weights.push_back(h.vertex_weight(v));
    pin_bound += h.degree(v);
  }

  // One pass over the nets, in id order, fills both CSRs. A net the
  // filter kept lies wholly inside the block iff it is in the component
  // (a kept net sharing a module with a component net is adjacent to it
  // in G), and wholly outside otherwise. A net over the threshold may
  // straddle the block; restricted to its 2..threshold block pins it joins
  // the block's filtered set — the one way that set can differ from the
  // component's nets.
  std::vector<std::size_t> block_offsets{0};
  std::vector<VertexId> block_pins;
  std::vector<Weight> block_weights;
  std::vector<std::size_t> filtered_offsets{0};
  std::vector<VertexId> filtered_pins;
  std::vector<Weight> filtered_weights;
  block_pins.reserve(pin_bound);
  filtered_pins.reserve(pin_bound);
  // Per slice G-vertex: its net's filtered_ id, or kInvalidEdge for a
  // straddling net.
  std::vector<EdgeId> parent_of;
  EdgeId next_filtered = 0;
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    const Count size = h.edge_size(e);
    if (size < 2) continue;
    const std::size_t first = block_pins.size();
    if (threshold == 0 || size <= threshold) {
      const EdgeId f = next_filtered++;
      if (g_component_[f] != component) continue;
      for (VertexId v : h.pins(e)) block_pins.push_back(vertex_map[v]);
      parent_of.push_back(f);
    } else {
      for (VertexId v : h.pins(e)) {
        if (vertex_map[v] != kInvalidVertex) {
          block_pins.push_back(vertex_map[v]);
        }
      }
      const std::size_t kept = block_pins.size() - first;
      if (kept < 2) {
        block_pins.resize(first);
        continue;
      }
      if (kept > threshold) {
        block_offsets.push_back(block_pins.size());
        block_weights.push_back(h.edge_weight(e));
        continue;
      }
      parent_of.push_back(kInvalidEdge);
    }
    block_offsets.push_back(block_pins.size());
    block_weights.push_back(h.edge_weight(e));
    filtered_pins.insert(
        filtered_pins.end(),
        block_pins.begin() + static_cast<std::ptrdiff_t>(first),
        block_pins.end());
    filtered_offsets.push_back(filtered_pins.size());
    filtered_weights.push_back(h.edge_weight(e));
  }
  FHP_ASSERT(next_filtered == filtered_.num_edges(),
             "the slice walk must mirror the large-net filter");
  out.block = Hypergraph::from_csr(std::move(block_offsets),
                                   std::move(block_pins), vertex_weights,
                                   std::move(block_weights));
  out.filtered = Hypergraph::from_csr(
      std::move(filtered_offsets), std::move(filtered_pins),
      std::move(vertex_weights), std::move(filtered_weights));

  // G rows. A component net's parent row, renumbered, is its whole row
  // (ids map monotonically, so it stays sorted) except for straddling
  // neighbors; a straddling net's row comes from the block's incidences.
  const Hypergraph& fb = out.filtered;
  const auto m = static_cast<VertexId>(parent_of.size());
  std::vector<VertexId> slice_id(filtered_.num_edges(), kInvalidVertex);
  for (VertexId i = 0; i < m; ++i) {
    if (parent_of[i] != kInvalidEdge) slice_id[parent_of[i]] = i;
  }
  std::vector<std::ptrdiff_t> straddle_offsets{0};
  std::vector<VertexId> straddle_rows;
  std::vector<std::pair<VertexId, VertexId>> extra;  // (row, straddler)
  std::vector<VertexId> mark;
  for (VertexId i = 0; i < m; ++i) {
    if (parent_of[i] != kInvalidEdge) continue;
    if (mark.empty()) mark.assign(m, kInvalidVertex);
    for (VertexId v : fb.pins(i)) {
      for (EdgeId j : fb.nets_of(v)) {
        if (j == i || mark[j] == i) continue;
        mark[j] = i;
        straddle_rows.push_back(static_cast<VertexId>(j));
        if (parent_of[j] != kInvalidEdge) {
          extra.emplace_back(static_cast<VertexId>(j), i);
        }
      }
    }
    std::sort(straddle_rows.begin() + straddle_offsets.back(),
              straddle_rows.end());
    straddle_offsets.push_back(
        static_cast<std::ptrdiff_t>(straddle_rows.size()));
  }
  std::sort(extra.begin(), extra.end());

  std::vector<std::size_t> offsets{0};
  offsets.reserve(static_cast<std::size_t>(m) + 1);
  std::vector<VertexId> adjacency;
  adjacency.reserve(2 * g_.num_edges() + straddle_rows.size() + extra.size());
  std::size_t straddler = 0;
  std::size_t next_extra = 0;
  for (VertexId i = 0; i < m; ++i) {
    if (parent_of[i] == kInvalidEdge) {
      const auto rows = straddle_rows.begin();
      adjacency.insert(adjacency.end(), rows + straddle_offsets[straddler],
                       rows + straddle_offsets[straddler + 1]);
      ++straddler;
    } else {
      const auto row = static_cast<std::ptrdiff_t>(offsets.back());
      for (VertexId f : g_.neighbors(parent_of[i])) {
        adjacency.push_back(slice_id[f]);
      }
      const auto middle = static_cast<std::ptrdiff_t>(adjacency.size());
      while (next_extra < extra.size() && extra[next_extra].first == i) {
        adjacency.push_back(extra[next_extra++].second);
      }
      std::inplace_merge(adjacency.begin() + row, adjacency.begin() + middle,
                         adjacency.end());
    }
    offsets.push_back(adjacency.size());
  }
  out.g = Graph::from_csr(std::move(offsets), std::move(adjacency));
  return out;
}

Algorithm1Result Algorithm1Context::run_floating_split() const {
  FHP_TRACE_SCOPE("floating_split");
  const Hypergraph& h = *h_;
  Algorithm1Result result;
  result.filtered_edges = filtered_edge_count();
  result.sides.assign(h.num_vertices(), kSide0);
  std::vector<VertexId> floating;
  Weight netted_weight = 0;
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    if (filtered_.degree(v) == 0) {
      result.sides[v] = kSide1;
      floating.push_back(v);
    } else {
      netted_weight += h.vertex_weight(v);
    }
  }
  if (floating.empty() || floating.size() == h.num_vertices()) {
    // Not applicable; metrics stay improper so callers discard it.
    return result;
  }
  // Floating modules touch no filtered net, so distributing them for
  // balance is free — but side 1 must keep at least one of them for the
  // cut to stay proper, so the heaviest floater is pinned there.
  std::sort(floating.begin(), floating.end(), [&](VertexId a, VertexId b) {
    const Weight wa = h.vertex_weight(a);
    const Weight wb = h.vertex_weight(b);
    return wa != wb ? wa > wb : a < b;
  });
  Weight weights[2] = {netted_weight, h.vertex_weight(floating.front())};
  std::vector<VertexId> rest(floating.begin() + 1, floating.end());
  balance_assign(h, rest, result.sides, weights);
  result.metrics = compute_metrics(Bipartition(h, result.sides));
  result.starts_run = 1;
  return result;
}

Algorithm1Result Algorithm1Context::run_single(VertexId start) const {
  StartScratch scratch;
  Algorithm1Result result = run_single(start, scratch);
  // Allocate-per-call convenience wrapper: every buffer the scratch grew
  // was an allocation this call paid for (the per-lane reuse path exports
  // the same counter once per multi-start run instead of once per start).
  FHP_COUNTER_ADD("workspace/buffer_grows",
                  static_cast<long long>(scratch.ws.grow_events()));
  return result;
}

Algorithm1Result Algorithm1Context::run_single(VertexId start,
                                               StartScratch& scratch) const {
  FHP_REQUIRE(!degenerate_, "degenerate instance: use run_degenerate()");
  FHP_REQUIRE(start < g_.num_vertices(), "start vertex out of range");
  FHP_COUNTER_ADD("alg1/starts_examined", 1);
  FHP_HIST_SCOPE_US("alg1/start_latency_us");
  const Hypergraph& h = *h_;

  // --- Single-net corner case: G is one vertex; the only proper options
  // are "net on one side, the rest on the other" (cut 0) or splitting the
  // net. Prefer the former when possible.
  if (g_.num_vertices() == 1) {
    Algorithm1Result result;
    result.filtered_edges = filtered_edge_count();
    result.sides.assign(h.num_vertices(), kSide0);
    std::vector<std::uint8_t>& sides = result.sides;
    const auto net_pins = filtered_.pins(0);
    if (net_pins.size() < h.num_vertices()) {
      for (VertexId v : net_pins) sides[v] = kSide1;
    } else {
      // Every module is on the lone net: split it as evenly as possible.
      Weight weights[2] = {0, 0};
      std::vector<VertexId> all(net_pins.begin(), net_pins.end());
      balance_assign(h, all, sides, weights);
    }
    ensure_proper(h, sides);
    {
      FHP_TRACE_SCOPE("score");
      result.metrics = compute_metrics(Bipartition(h, sides));
    }
    result.starts_run = 1;
    return result;
  }

  // --- Steps 1-2: pseudo-diameter pair, then everything downstream of it.
  return run_from_pair(find_pair(start, scratch.ws), scratch);
}

DiameterPair Algorithm1Context::find_pair(VertexId start, Workspace& ws) const {
  FHP_REQUIRE(!degenerate_, "degenerate instance: use run_degenerate()");
  FHP_REQUIRE(start < g_.num_vertices(), "start vertex out of range");
  FHP_REQUIRE(g_.num_vertices() >= 2,
              "a pseudo-diameter pair needs at least two G-vertices");
  FHP_REQUIRE(options_.bfs_sweeps >= 1, "need at least one BFS sweep");
  const DiameterPair first = first_sweep(start, ws);
  return options_.bfs_sweeps == 1 ? first : continue_sweeps(first.t, ws);
}

// Both halves traverse the locality-permuted graph when reordered but
// break `farthest` ties by original id (tie_rank = inverse permutation):
// the elected endpoints — and hence the memo keys and everything
// downstream — are exactly those the un-reordered run elects.
DiameterPair Algorithm1Context::first_sweep(VertexId start,
                                            Workspace& ws) const {
  if (!reordered_) return fhp::first_sweep(g_, start, ws);
  BfsKernelOptions kernel;
  kernel.tie_rank = perm_.to_old.data();
  DiameterPair pair =
      fhp::first_sweep(g_perm_, perm_.to_new[start], ws, kernel);
  pair.s = perm_.to_old[pair.s];
  pair.t = perm_.to_old[pair.t];
  return pair;
}

DiameterPair Algorithm1Context::continue_sweeps(VertexId v,
                                                Workspace& ws) const {
  if (!reordered_) return fhp::continue_sweeps(g_, v, options_.bfs_sweeps, ws);
  BfsKernelOptions kernel;
  kernel.tie_rank = perm_.to_old.data();
  DiameterPair pair = fhp::continue_sweeps(g_perm_, perm_.to_new[v],
                                           options_.bfs_sweeps, ws, kernel);
  pair.s = perm_.to_old[pair.s];
  pair.t = perm_.to_old[pair.t];
  return pair;
}

Algorithm1Context::LaneScratch Algorithm1Context::make_lane_scratch() const {
  const std::size_t lanes =
      static_cast<std::size_t>(pool_ != nullptr ? pool_->thread_count() : 1);
  LaneScratch scratch;
  scratch.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    scratch.push_back(std::make_unique<StartScratch>());
  }
  return scratch;
}

namespace {

/// Runs fn(i, lane scratch) for i in [0, count) on \p pool, or serially.
/// current_lane() is only a valid index into \p lanes INSIDE a region of
/// the context's own pool (where the caller is normalized to 0 and workers
/// are 1..N-1). On the serial path the executing thread may be a worker of
/// an *outer* pool — e.g. the serving layer batching independent partition
/// calls across its lanes — whose lane id has nothing to do with \p lanes,
/// so the serial path indexes lane 0 explicitly.
template <typename Fn>
void for_each_on_lanes(ThreadPool* pool, std::size_t count,
                       const Algorithm1Context::LaneScratch& lanes, Fn&& fn) {
  if (pool != nullptr && pool->thread_count() > 1 && count > 1) {
    pool->parallel_for(count, 1, [&](std::size_t begin, std::size_t end) {
      Algorithm1Context::StartScratch& scratch =
          *lanes[static_cast<std::size_t>(ThreadPool::current_lane())];
      for (std::size_t i = begin; i < end; ++i) fn(i, scratch);
    });
  } else {
    for (std::size_t i = 0; i < count; ++i) fn(i, *lanes[0]);
  }
}

}  // namespace

std::vector<DiameterPair> Algorithm1Context::find_pairs(
    std::span<const VertexId> starts, const LaneScratch& lanes) const {
  FHP_REQUIRE(!degenerate_, "degenerate instance: use run_degenerate()");
  FHP_REQUIRE(g_.num_vertices() >= 2,
              "a pseudo-diameter pair needs at least two G-vertices");
  FHP_REQUIRE(options_.bfs_sweeps >= 1, "need at least one BFS sweep");
  for (VertexId start : starts) {
    FHP_REQUIRE(start < g_.num_vertices(), "start vertex out of range");
  }
  std::vector<DiameterPair> pairs(starts.size());
  for_each_on_lanes(pool_, starts.size(), lanes,
                    [&](std::size_t i, StartScratch& scratch) {
                      FHP_HIST_SCOPE_US("alg1/pair_find_us");
                      pairs[i] = first_sweep(starts[i], scratch.ws);
                    });
  if (options_.bfs_sweeps == 1) return pairs;

  // Distinct first-sweep endpoints, in start order; the remaining sweeps
  // run once per endpoint and every start that reached it shares them.
  std::vector<std::size_t> slot(starts.size());
  std::vector<VertexId> endpoints;
  std::unordered_map<VertexId, std::size_t> slot_of;
  slot_of.reserve(starts.size());
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const auto [it, inserted] =
        slot_of.try_emplace(pairs[i].t, endpoints.size());
    if (inserted) endpoints.push_back(pairs[i].t);
    slot[i] = it->second;
  }
  FHP_COUNTER_ADD("algorithm1/endpoint_memo_hits",
                  static_cast<long long>(starts.size() - endpoints.size()));
  std::vector<DiameterPair> continued(endpoints.size());
  for_each_on_lanes(pool_, endpoints.size(), lanes,
                    [&](std::size_t i, StartScratch& scratch) {
                      FHP_HIST_SCOPE_US("alg1/pair_find_us");
                      continued[i] = continue_sweeps(endpoints[i], scratch.ws);
                    });
  for (std::size_t i = 0; i < starts.size(); ++i) {
    pairs[i] = continued[slot[i]];
  }
  return pairs;
}

Algorithm1Result Algorithm1Context::run_from_pair(const DiameterPair& pair,
                                                  StartScratch& scratch) const {
  FHP_REQUIRE(!degenerate_, "degenerate instance: use run_degenerate()");
  const Hypergraph& h = *h_;
  FHP_ASSERT(pair.s != pair.t, "connected G with >= 2 vertices expected");
  FHP_GAUGE_SET("alg1/pseudo_diameter", pair.distance);

  if (options_.initial_cut == InitialCutStrategy::kLevelSweep) {
    // Try every BFS level-prefix cut from pair.s and keep the best
    // completed partition. Raw cutsize would always elect the degenerate
    // end-of-sweep positions (slicing one corner off), so candidates with
    // a lighter side below a quarter of the total weight only win when no
    // balanced prefix exists.
    std::uint32_t depth = 0;
    {
      FHP_TRACE_SCOPE("initial_cut");
      // Distance labels are relabeling-invariant, so the sweep may run on
      // the permuted graph; the copy-out below indexes through the
      // permutation to land the labels back on original ids.
      const BfsSummary levels =
          reordered_ ? bfs_scan(g_perm_, perm_.to_new[pair.s], scratch.ws)
                     : bfs_scan(g_, pair.s, scratch.ws);
      depth = levels.depth;
      // The completion sweep below reuses the workspace, so the distance
      // labels must outlive it: copy them into the dedicated buffer.
      scratch.levels.resize(g_.num_vertices());
      for (VertexId u = 0; u < g_.num_vertices(); ++u) {
        scratch.levels[u] =
            scratch.ws.distance.get(reordered_ ? perm_.to_new[u] : u);
      }
    }
    const Weight total = h.total_vertex_weight();
    Algorithm1Result best;
    bool have_best = false;
    bool best_balanced = false;
    for (std::uint32_t cutoff = 0; cutoff < depth; ++cutoff) {
      scratch.g_side.assign(g_.num_vertices(), 1);
      for (VertexId u = 0; u < g_.num_vertices(); ++u) {
        if (scratch.levels[u] <= cutoff) scratch.g_side[u] = 0;
      }
      Algorithm1Result candidate = complete_from_cut_impl(scratch.g_side,
                                                          scratch);
      candidate.pseudo_diameter = pair.distance;
      const bool balanced =
          2 * candidate.metrics.weight_imbalance <= total;
      bool take;
      if (!have_best) {
        take = true;
      } else if (balanced != best_balanced) {
        take = balanced;
      } else {
        take = candidate.metrics.cut_edges < best.metrics.cut_edges ||
               (candidate.metrics.cut_edges == best.metrics.cut_edges &&
                candidate.metrics.weight_imbalance <
                    best.metrics.weight_imbalance);
      }
      if (take) {
        best = std::move(candidate);
        have_best = true;
        best_balanced = balanced;
      }
    }
    FHP_ASSERT(have_best, "BFS depth >= 1 on a connected G with >= 2 nodes");
    best.starts_run = 1;
    return best;
  }

  // The region-growing cut is a function of adjacency and region sizes
  // only (see bfs.hpp), so it may run on the permuted graph; the claimed
  // sides are mapped back through the inverse permutation BEFORE boundary
  // extraction, whose tie-breaking is index-sensitive and must see
  // original ids for reorder on/off to stay bit-identical.
  if (reordered_) {
    bidirectional_bfs_cut(g_perm_, perm_.to_new[pair.s], perm_.to_new[pair.t],
                          scratch.ws, scratch.cut);
    scratch.g_side.resize(g_.num_vertices());
    for (VertexId u = 0; u < g_.num_vertices(); ++u) {
      const std::uint8_t s = scratch.cut.side[perm_.to_new[u]];
      FHP_ASSERT(s != 2, "all G-vertices reachable when G is connected");
      scratch.g_side[u] = s;
    }
  } else {
    bidirectional_bfs_cut(g_, pair.s, pair.t, scratch.ws, scratch.cut);
    scratch.g_side.assign(scratch.cut.side.begin(), scratch.cut.side.end());
    for (std::uint8_t s : scratch.g_side) {
      FHP_ASSERT(s != 2, "all G-vertices reachable when G is connected");
    }
  }
  Algorithm1Result completed = complete_from_cut_impl(scratch.g_side,
                                                      scratch);
  completed.pseudo_diameter = pair.distance;
  completed.starts_run = 1;
  return completed;
}

Algorithm1Result Algorithm1Context::complete_from_cut(
    std::vector<std::uint8_t> g_side) const {
  StartScratch scratch;
  Algorithm1Result result = complete_from_cut_impl(g_side, scratch);
  FHP_COUNTER_ADD("workspace/buffer_grows",
                  static_cast<long long>(scratch.ws.grow_events()));
  return result;
}

Algorithm1Result Algorithm1Context::complete_from_cut_impl(
    std::span<const std::uint8_t> g_side, StartScratch& scratch) const {
  FHP_REQUIRE(!degenerate_, "degenerate instance: use run_degenerate()");
  FHP_REQUIRE(g_side.size() == g_.num_vertices(),
              "one side per G-vertex expected");
  const Hypergraph& h = *h_;
  Algorithm1Result result;
  result.filtered_edges = filtered_edge_count();
  result.sides.assign(h.num_vertices(), kSide0);

  extract_boundary(g_, g_side, scratch.ws, scratch.boundary);
  const BoundaryStructure& boundary = scratch.boundary;
  result.boundary_size = boundary.size();
  FHP_COUNTER_ADD("alg1/boundary_nodes",
                  static_cast<long long>(boundary.size()));
  FHP_GAUGE_SET("alg1/boundary_size", boundary.size());

  std::vector<std::uint8_t>& forced = scratch.forced;
  forced.assign(h.num_vertices(), kFree);
  {
    FHP_TRACE_SCOPE("assemble");
    for (VertexId v = 0; v < h.num_vertices(); ++v) {
      if (v < filtered_.num_vertices() && filtered_.degree(v) > 0) {
        forced[v] = kPending;
      }
    }
    for (EdgeId e = 0; e < filtered_.num_edges(); ++e) {
      if (boundary.is_boundary[e]) continue;
      const std::uint8_t s = boundary.g_side[e];
      for (VertexId v : filtered_.pins(e)) {
        FHP_ASSERT(forced[v] == kPending || forced[v] == s,
                   "module forced to both sides by non-boundary nets");
        forced[v] = s;
      }
    }
  }

  // --- Step 4: complete the boundary partition.
  CompletionResult& completion = scratch.completion;
  switch (options_.completion) {
    case CompletionStrategy::kGreedy:
      complete_cut_greedy(boundary.boundary_graph, scratch.ws, completion);
      break;
    case CompletionStrategy::kExact:
      completion = complete_cut_exact(boundary.boundary_graph,
                                      boundary.boundary_side);
      break;
    case CompletionStrategy::kWeightedGreedy: {
      Weight initial[2] = {0, 0};
      for (VertexId v = 0; v < h.num_vertices(); ++v) {
        if (forced[v] == kSide0 || forced[v] == kSide1) {
          initial[forced[v]] += h.vertex_weight(v);
        }
      }
      // Weight a winner would pull over: its not-yet-forced pins. Pins
      // shared by several boundary nets are counted once per net — a
      // deliberate approximation of the engineer's rule (see header).
      std::vector<Weight>& node_weight = scratch.node_weight;
      node_weight.assign(boundary.size(), 0);
      for (VertexId b = 0; b < boundary.size(); ++b) {
        const EdgeId e = boundary.boundary_nodes[b];
        for (VertexId v : filtered_.pins(e)) {
          if (forced[v] == kPending) node_weight[b] += h.vertex_weight(v);
        }
      }
      complete_cut_weighted(boundary.boundary_graph, boundary.boundary_side,
                            node_weight, initial[0], initial[1], scratch.ws,
                            completion);
      break;
    }
  }
  result.winner_count = completion.winner_count;
  result.loser_count = completion.loser_count;
  FHP_COUNTER_ADD("alg1/completion_winners",
                  static_cast<long long>(completion.winner_count));
  FHP_COUNTER_ADD("alg1/completion_losers",
                  static_cast<long long>(completion.loser_count));

  // --- Step 5: assemble module sides. Winner nets force their pins.
  std::vector<std::uint8_t>& sides = result.sides;
  {
    FHP_TRACE_SCOPE("assemble");
    std::vector<VertexId>& unforced = scratch.unforced;
    unforced.clear();
    for (VertexId v = 0; v < h.num_vertices(); ++v) {
      if (forced[v] == kSide0 || forced[v] == kSide1) {
        sides[v] = forced[v];
        continue;
      }
      if (forced[v] == kFree) {
        unforced.push_back(v);
        continue;
      }
      // Pending: adopt the side of a winner net touching it, if any.
      std::uint8_t chosen = kPending;
      for (EdgeId e : filtered_.nets_of(v)) {
        const VertexId b = boundary.boundary_index[e];
        FHP_ASSERT(b != kInvalidVertex,
                   "pending module must only touch boundary nets");
        if (completion.winner[b]) {
          const std::uint8_t s = boundary.boundary_side[b];
          FHP_ASSERT(chosen == kPending || chosen == s,
                     "winners on both sides share a module");
          chosen = s;
        }
      }
      if (chosen == kPending) {
        // Touched only by loser nets: free to go wherever balance wants.
        if (options_.balance_free_vertices) {
          unforced.push_back(v);
        } else {
          sides[v] = boundary.g_side[filtered_.nets_of(v).front()];
        }
      } else {
        sides[v] = chosen;
      }
    }
    {
      std::vector<std::uint8_t>& is_unforced = scratch.is_unforced;
      is_unforced.assign(h.num_vertices(), 0);
      for (VertexId u : unforced) is_unforced[u] = 1;
      Weight weights[2] = {0, 0};
      for (VertexId v = 0; v < h.num_vertices(); ++v) {
        if (!is_unforced[v]) weights[sides[v]] += h.vertex_weight(v);
      }
      balance_assign(h, unforced, sides, weights, scratch.ws.order);
    }
    ensure_proper(h, sides);
  }

  {
    FHP_TRACE_SCOPE("score");
    result.metrics = compute_metrics(Bipartition(h, sides));
  }
  result.starts_run = 1;
  return result;
}

Algorithm1Result Algorithm1Context::run_starts() const {
  FHP_REQUIRE(!degenerate_, "degenerate instance: use run_degenerate()");
  const Algorithm1Options& options = options_;
  const VertexId n = g_.num_vertices();
  Rng rng(options.seed);
  // Starts are a prefix of one seeded permutation, so that examining more
  // starts under the same seed can only extend — never replace — the set
  // already examined (a k-start run dominates a j-start run for j < k).
  std::vector<VertexId> starts(n);
  std::iota(starts.begin(), starts.end(), 0U);
  rng.shuffle(starts);
  if (static_cast<std::uint64_t>(options.num_starts) < n) {
    starts.resize(static_cast<std::size_t>(options.num_starts));
  }

  Algorithm1Result best;
  bool have_best = false;
  ThreadPool* pool = pool_;
  const bool parallel =
      pool != nullptr && pool->thread_count() > 1 && starts.size() > 1;

  // One scratch bundle per execution lane (worker lanes 1..N-1 plus the
  // region caller as lane 0): the steady-state start loop then reuses warm
  // buffers instead of allocating per start. Serial call sites index lane
  // 0 explicitly (see for_each_on_lanes).
  const LaneScratch scratch = make_lane_scratch();

  if (options.memoize_starts && n >= 2) {
    // Memoized multi-start: distinct random starts frequently converge to
    // the same pseudo-diameter pair after the BFS sweeps, and everything
    // downstream of the pair is a pure function of it. Four phases keep
    // the run bit-identical to the unmemoized loop at any lane count:
    //   1. find every start's endpoint pair (find_pairs: first sweeps in
    //      parallel, then the remaining sweeps once per distinct
    //      first-sweep endpoint);
    //   2. dedup pairs by ORDERED (s, t) key, serially — the bidirectional
    //      cut's tie-breaking is orientation-sensitive, so (s, t) and
    //      (t, s) stay distinct keys;
    //   3. complete each unique pair once (parallel);
    //   4. reduce in start order, hits referencing their owner's result —
    //      with the strict better() this elects exactly the candidate the
    //      unmemoized loop would.
    FHP_COUNTER_ADD("alg1/starts_examined",
                    static_cast<long long>(starts.size()));
    if (parallel) FHP_COUNTER_ADD("alg1/parallel_start_batches", 1);
    const std::vector<DiameterPair> pairs = find_pairs(starts, scratch);

    std::vector<std::size_t> owner(starts.size());
    std::unordered_map<std::uint64_t, std::size_t> first_of;
    first_of.reserve(starts.size());
    long long hits = 0;
    for (std::size_t i = 0; i < starts.size(); ++i) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(pairs[i].s) << 32) |
          static_cast<std::uint64_t>(pairs[i].t);
      const auto [it, inserted] = first_of.try_emplace(key, i);
      owner[i] = it->second;
      if (!inserted) ++hits;
    }
    FHP_COUNTER_ADD("algorithm1/starts_memo_hits", hits);
    FHP_COUNTER_ADD("algorithm1/starts_memo_misses",
                    static_cast<long long>(starts.size()) - hits);

    std::vector<std::size_t> owners;
    owners.reserve(first_of.size());
    for (std::size_t i = 0; i < starts.size(); ++i) {
      if (owner[i] == i) owners.push_back(i);
    }
    std::vector<Algorithm1Result> completed(starts.size());
    for_each_on_lanes(pool, owners.size(), scratch,
                      [&](std::size_t i, StartScratch& s) {
                        // Same histogram as the unmemoized per-start path:
                        // a memo run's "starts" are the unique pairs it
                        // actually completes.
                        FHP_HIST_SCOPE_US("alg1/start_latency_us");
                        completed[owners[i]] =
                            run_from_pair(pairs[owners[i]], s);
                      });

    for (std::size_t i = 0; i < starts.size(); ++i) {
      const Algorithm1Result& candidate = completed[owner[i]];
      if (!have_best || better(candidate, best, options.objective)) {
        best = candidate;
        have_best = true;
      }
    }
  } else if (parallel) {
    // Each start is deterministic given its G-vertex, so the only way
    // thread count could leak into the answer is reduction order — and the
    // reduction below walks candidates in start order, exactly like the
    // serial loop, so ties resolve identically at any lane count.
    FHP_COUNTER_ADD("alg1/parallel_start_batches", 1);
    std::vector<Algorithm1Result> candidates =
        pool->parallel_map<Algorithm1Result>(starts.size(), [&](std::size_t i) {
          return run_single(
              starts[i],
              *scratch[static_cast<std::size_t>(ThreadPool::current_lane())]);
        });
    for (Algorithm1Result& candidate : candidates) {
      if (!have_best || better(candidate, best, options.objective)) {
        best = std::move(candidate);
        have_best = true;
      }
    }
  } else {
    for (VertexId start : starts) {
      Algorithm1Result candidate = run_single(start, *scratch[0]);
      if (!have_best || better(candidate, best, options.objective)) {
        best = std::move(candidate);
        have_best = true;
      }
    }
  }
  FHP_ASSERT(have_best, "at least one start must run");

  // Workspace accounting for the whole multi-start run: the per-lane
  // steady state grows each buffer once, so this total stays a small
  // multiple of the lane count however many starts executed.
  std::size_t ws_grows = 0;
  std::size_t ws_bytes = 0;
  for (const auto& s : scratch) {
    ws_grows += s->ws.grow_events();
    ws_bytes += s->ws.allocated_bytes();
  }
  FHP_COUNTER_ADD("workspace/buffer_grows", static_cast<long long>(ws_grows));
  FHP_GAUGE_SET("alg1/scratch_bytes", static_cast<double>(ws_bytes));

  // Optional extra candidate: when some modules sit on no (surviving)
  // net, the cut "all netted modules | floating modules" loses no
  // filtered net at all — the analogue of the c = 0 shortcut with a
  // connected G. It can be arbitrarily unbalanced, so it only competes
  // when explicitly requested.
  if (options.consider_floating_split) {
    Algorithm1Result floating = run_floating_split();
    if (floating.metrics.proper &&
        better(floating, best, options.objective)) {
      best = std::move(floating);
    }
  }

  best.starts_run = static_cast<int>(starts.size());
  return best;
}

namespace {

/// Body of algorithm1(); split out so the caller can snapshot the tracer
/// after the root span has closed (an open span has no completed total).
Algorithm1Result algorithm1_impl(const Hypergraph& h,
                                 const Algorithm1Options& options) {
  const Algorithm1Context context(h, options);
  if (context.is_degenerate()) {
    Algorithm1Result result = context.run_degenerate();
    result.starts_run = 1;
    return result;
  }
  return context.run_starts();
}

}  // namespace

Algorithm1Result algorithm1(const Hypergraph& h,
                            const Algorithm1Options& options) {
  FHP_REQUIRE(options.num_starts >= 1, "need at least one start");
  Algorithm1Result result;
  {
    FHP_TRACE_SCOPE("algorithm1");
    FHP_COUNTER_ADD("alg1/runs", 1);
    result = algorithm1_impl(h, options);
  }
  if (options.collect_trace) result.trace = obs::snapshot();
  return result;
}

}  // namespace fhp

#include "partition/gain_engine.hpp"

#include <algorithm>
#include <numeric>

namespace fhp {

namespace {

/// Holds D ± tolerance and 2·w exactly for any Weight operands.
using WideWeight = __int128;

}  // namespace

Weight cell_gain(const Bipartition& p, VertexId v) {
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

GainEngine::GainEngine(Bipartition& p, GainTie tie) : p_(p), tie_(tie) {
  const Hypergraph& h = p.hypergraph();
  const VertexId n = h.num_vertices();
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), VertexId{0});
  const auto by_weight = [&h](VertexId a, VertexId b) {
    const Weight wa = h.vertex_weight(a);
    const Weight wb = h.vertex_weight(b);
    return wa != wb ? wa < wb : a < b;
  };
  // Unit (or id-monotone) weights are already ranked by id.
  if (!std::is_sorted(order.begin(), order.end(), by_weight)) {
    std::sort(order.begin(), order.end(), by_weight);
  }
  rank_.resize(n);
  ranked_weight_.resize(n);
  for (VertexId r = 0; r < n; ++r) {
    rank_[order[r]] = r;
    ranked_weight_[r] = h.vertex_weight(order[r]);
  }
  gain_.assign(n, 0);
  locked_.assign(n, 0);
  touched_mark_.assign(n, 0);
  tree_[0].assign(2 * static_cast<std::size_t>(n), kInvalidVertex);
  tree_[1].assign(2 * static_cast<std::size_t>(n), kInvalidVertex);
}

VertexId GainEngine::better(VertexId a, VertexId b) const {
  if (a == kInvalidVertex) return b;
  if (b == kInvalidVertex) return a;
  if (gain_[a] != gain_[b]) return gain_[a] > gain_[b] ? a : b;
  return (tie_ == GainTie::kHigherId) == (a > b) ? a : b;
}

void GainEngine::start(std::span<const std::uint8_t> locked) {
  const std::size_t n = rank_.size();
  FHP_REQUIRE(locked.empty() || locked.size() == n,
              "lock mask must be empty or cover every module");
  if (locked.empty()) {
    std::fill(locked_.begin(), locked_.end(), std::uint8_t{0});
  } else {
    std::copy(locked.begin(), locked.end(), locked_.begin());
  }
  for (auto& tree : tree_) {
    std::fill(tree.begin() + static_cast<std::ptrdiff_t>(n), tree.end(),
              kInvalidVertex);
  }
  for (VertexId v = 0; v < n; ++v) {
    if (locked_[v]) continue;
    gain_[v] = cell_gain(p_, v);
    tree_[p_.side(v)][n + rank_[v]] = v;
  }
  for (auto& tree : tree_) {
    for (std::size_t i = n; i-- > 1;) {
      tree[i] = better(tree[2 * i], tree[2 * i + 1]);
    }
  }
}

void GainEngine::set_leaf(std::uint8_t side, VertexId rank, VertexId v) {
  std::vector<VertexId>& tree = tree_[side];
  std::size_t i = rank_.size() + rank;
  tree[i] = v;
  for (i >>= 1; i >= 1; i >>= 1) {
    tree[i] = better(tree[2 * i], tree[2 * i + 1]);
  }
}

void GainEngine::bump(VertexId u, Weight delta) {
  gain_[u] += delta;
  if (!touched_mark_[u]) {
    touched_mark_[u] = 1;
    touched_.push_back(u);
  }
}

void GainEngine::move(VertexId v, bool lock) {
  const Hypergraph& h = p_.hypergraph();
  const std::uint8_t from = p_.side(v);
  const auto to = static_cast<std::uint8_t>(1 - from);
  set_leaf(from, rank_[v], kInvalidVertex);

  for (EdgeId e : h.nets_of(v)) {
    const Weight w = h.edge_weight(e);
    if (w == 0) continue;
    const Count f = p_.pins_on_side(e, from);
    const Count t = p_.pins_on_side(e, to);
    const std::span<const VertexId> pins = h.pins(e);
    if (t == 0) {
      for (VertexId u : pins) {
        if (u != v && !locked_[u]) bump(u, w);
      }
    } else if (t == 1) {
      for (VertexId u : pins) {
        if (p_.side(u) != to) continue;
        if (!locked_[u]) bump(u, -w);
        break;
      }
    }
    if (f == 1) {
      for (VertexId u : pins) {
        if (u != v && !locked_[u]) bump(u, -w);
      }
    } else if (f == 2) {
      for (VertexId u : pins) {
        if (u == v || p_.side(u) != from) continue;
        if (!locked_[u]) bump(u, w);
        break;
      }
    }
  }
  p_.flip(v);

  for (VertexId u : touched_) {
    touched_mark_[u] = 0;
    set_leaf(p_.side(u), rank_[u], u);
  }
  touched_.clear();
  if (lock) {
    locked_[v] = 1;
  } else {
    gain_[v] = -gain_[v];  // moving back undoes exactly this cut change
    set_leaf(to, rank_[v], v);
  }
}

VertexId GainEngine::best(std::uint8_t side, RankRange ranks) const {
  const std::vector<VertexId>& tree = tree_[side];
  const std::size_t n = rank_.size();
  VertexId result = kInvalidVertex;
  for (std::size_t l = n + ranks.lo, r = n + ranks.hi; l < r;
       l >>= 1, r >>= 1) {
    if (l & 1) result = better(result, tree[l++]);
    if (r & 1) result = better(result, tree[--r]);
  }
  return result;
}

RankRange GainEngine::legal_ranks(std::uint8_t from, Weight tolerance) const {
  // |(W_from - w) - (W_to + w)| <= tol  <=>  D - tol <= 2w <= D + tol
  // with D = W_from - W_to; both bounds are monotone in w.
  const WideWeight d = WideWeight{p_.weight(from)} -
                       p_.weight(static_cast<std::uint8_t>(1 - from));
  const WideWeight low = d - tolerance;
  const WideWeight high = d + tolerance;
  const auto lo = std::partition_point(
      ranked_weight_.begin(), ranked_weight_.end(),
      [low](Weight w) { return 2 * WideWeight{w} < low; });
  const auto hi = std::partition_point(
      lo, ranked_weight_.end(),
      [high](Weight w) { return 2 * WideWeight{w} <= high; });
  return {static_cast<VertexId>(lo - ranked_weight_.begin()),
          static_cast<VertexId>(hi - ranked_weight_.begin())};
}

VertexId GainEngine::ranks_lighter_than(double limit) const {
  const auto end = std::partition_point(
      ranked_weight_.begin(), ranked_weight_.end(),
      [limit](Weight w) { return static_cast<double>(w) < limit; });
  return static_cast<VertexId>(end - ranked_weight_.begin());
}

}  // namespace fhp

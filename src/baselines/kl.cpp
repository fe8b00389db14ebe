#include "baselines/kl.hpp"

#include <algorithm>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "partition/gain_engine.hpp"
#include "partition/partition.hpp"

namespace fhp {

namespace {

/// Best unlocked vertex on side \p s by cell gain; kInvalidVertex if none.
/// A full scan per pick: the classic KL cost the Table 2 comparison cites.
VertexId best_on_side(const Bipartition& p,
                      const std::vector<std::uint8_t>& locked,
                      std::uint8_t s) {
  VertexId best = kInvalidVertex;
  Weight best_gain = 0;
  for (VertexId v = 0; v < p.hypergraph().num_vertices(); ++v) {
    if (locked[v] || p.side(v) != s) continue;
    const Weight g = cell_gain(p, v);
    if (best == kInvalidVertex || g > best_gain) {
      best = v;
      best_gain = g;
    }
  }
  return best;
}

}  // namespace

BaselineResult kernighan_lin(const Hypergraph& h, const KlOptions& options) {
  FHP_TRACE_SCOPE("kl");
  FHP_COUNTER_ADD("kl/runs", 1);
  FHP_REQUIRE(options.max_passes >= 1, "need at least one pass");
  if (is_degenerate_instance(h)) return trivial_baseline_result(h);

  std::vector<std::uint8_t> sides;
  if (options.initial.has_value()) {
    sides = *options.initial;
    FHP_REQUIRE(sides.size() == h.num_vertices(),
                "initial partition must cover every module");
  } else {
    sides = random_bisection(h, options.seed).sides;
  }
  Bipartition p(h, std::move(sides));

  int passes = 0;
  for (; passes < options.max_passes; ++passes) {
    std::vector<std::uint8_t> locked(h.num_vertices(), 0);
    std::vector<std::pair<VertexId, VertexId>> swaps;
    const Weight start_cut = p.cut_weight();
    Weight best_cut = start_cut;
    std::size_t best_prefix = 0;

    for (;;) {
      // Pick the two halves of the swap greedily by single-move gain;
      // applying sequentially makes the second choice see the first move's
      // effect, approximating the D_a + D_b - 2 c_ab pair gain.
      const VertexId a = best_on_side(p, locked, 0);
      if (a == kInvalidVertex) break;
      p.flip(a);
      const VertexId b = best_on_side(p, locked, 1);
      if (b == kInvalidVertex) {
        p.flip(a);  // no partner: undo and end the pass
        break;
      }
      p.flip(b);
      locked[a] = 1;
      locked[b] = 1;
      swaps.emplace_back(a, b);
      if (p.cut_weight() < best_cut) {
        best_cut = p.cut_weight();
        best_prefix = swaps.size();
      }
    }

    FHP_COUNTER_ADD("kl/swaps", static_cast<long long>(swaps.size()));
    FHP_COUNTER_ADD("kl/swaps_rolled_back",
                    static_cast<long long>(swaps.size() - best_prefix));
    while (swaps.size() > best_prefix) {
      const auto [a, b] = swaps.back();
      swaps.pop_back();
      p.flip(a);
      p.flip(b);
    }
    if (best_cut >= start_cut) break;
  }
  FHP_COUNTER_ADD("kl/passes", passes);

  BaselineResult result;
  result.sides = p.sides();
  result.metrics = compute_metrics(p);
  result.iterations = passes;
  return result;
}

}  // namespace fhp

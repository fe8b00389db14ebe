#include "baselines/fm.hpp"

#include <algorithm>
#include <limits>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "partition/gain_engine.hpp"
#include "partition/partition.hpp"
#include "util/rng.hpp"

namespace fhp {

namespace {

/// Highest-gain unlocked move that keeps the partition within
/// \p tolerance. Ties: side 0 wins at equal gain; within a side the
/// higher module id wins (the engine's GainTie::kHigherId).
VertexId pick_move(const GainEngine& engine, Weight tolerance) {
  VertexId best = kInvalidVertex;
  for (std::uint8_t s = 0; s < 2; ++s) {
    const VertexId v = engine.best(s, engine.legal_ranks(s, tolerance));
    if (v == kInvalidVertex) continue;
    if (best == kInvalidVertex || engine.gain(v) > engine.gain(best)) {
      best = v;
    }
  }
  return best;
}

/// Runs one pass: move the best legal module and lock it until no legal
/// move is left (or the budget runs out), then roll back to the best
/// prefix. Returns true if the cut (or, at equal cut, the weight
/// imbalance) improved. \p moves is caller-owned scratch.
bool run_pass(GainEngine& engine, Bipartition& p, Weight tolerance,
              std::int64_t& moves_budget,
              const std::vector<std::uint8_t>& fixed,
              std::vector<VertexId>& moves) {
  engine.start(fixed);  // fixed modules start (and stay) locked
  const Weight start_cut = p.cut_weight();
  const Weight start_imbalance = p.weight_imbalance();
  Weight best_cut = start_cut;
  Weight best_imbalance = start_imbalance;
  std::size_t best_prefix = 0;
  moves.clear();

  while (moves_budget > 0) {
    const VertexId v = pick_move(engine, tolerance);
    if (v == kInvalidVertex) break;
    --moves_budget;
    engine.move(v, /*lock=*/true);
    moves.push_back(v);
    const Weight cut = p.cut_weight();
    const Weight imbalance = p.weight_imbalance();
    if (cut < best_cut || (cut == best_cut && imbalance < best_imbalance)) {
      best_cut = cut;
      best_imbalance = imbalance;
      best_prefix = moves.size();
    }
  }

  FHP_COUNTER_ADD("fm/moves", static_cast<long long>(moves.size()));
  FHP_COUNTER_ADD("fm/moves_rolled_back",
                  static_cast<long long>(moves.size() - best_prefix));

  // Roll back to the best prefix (the next start() recomputes gains).
  while (moves.size() > best_prefix) {
    p.flip(moves.back());
    moves.pop_back();
  }
  return best_cut < start_cut ||
         (best_cut == start_cut && best_imbalance < start_imbalance &&
          best_prefix > 0);
}

}  // namespace

std::int64_t fm_move_budget(int max_passes, VertexId num_modules) noexcept {
  return std::int64_t{max_passes} * static_cast<std::int64_t>(num_modules) * 2;
}

BaselineResult fiduccia_mattheyses(const Hypergraph& h,
                                   const FmOptions& options) {
  FHP_TRACE_SCOPE("fm");
  FHP_COUNTER_ADD("fm/runs", 1);
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

  Weight tolerance = options.max_weight_imbalance;
  if (tolerance <= 0) {
    Weight max_w = 1;
    for (VertexId v = 0; v < h.num_vertices(); ++v) {
      max_w = std::max(max_w, h.vertex_weight(v));
    }
    // 2 * max_w, saturated: beyond Weight's range every move is legal
    // anyway, since no imbalance exceeds the total weight.
    tolerance = max_w > std::numeric_limits<Weight>::max() / 2
                    ? std::numeric_limits<Weight>::max()
                    : 2 * max_w;
  }
  // Never demand a tighter balance than the starting partition satisfies,
  // or no move could ever be rolled into a legal prefix.
  tolerance = std::max(tolerance, p.weight_imbalance());

  BaselineResult result;
  // Global move budget keeps the baseline politely bounded on adversarial
  // instances; ordinary runs converge long before it is reached.
  std::int64_t moves_budget =
      fm_move_budget(options.max_passes, h.num_vertices());
  FHP_REQUIRE(options.fixed.empty() ||
                  options.fixed.size() == h.num_vertices(),
              "fixed mask must be empty or cover every module");
  // Ranked weights, gains, tournaments and the move log are allocated
  // once per call and reused by every pass.
  GainEngine engine(p, GainTie::kHigherId);
  std::vector<VertexId> moves;
  int passes = 0;
  for (; passes < options.max_passes; ++passes) {
    if (!run_pass(engine, p, tolerance, moves_budget, options.fixed, moves)) {
      break;
    }
  }
  FHP_COUNTER_ADD("fm/passes", passes);
  result.sides = p.sides();
  result.metrics = compute_metrics(p);
  result.iterations = passes;
  return result;
}

}  // namespace fhp

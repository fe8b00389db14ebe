/// \file fm.hpp
/// Fiduccia–Mattheyses iterative-improvement bipartitioning [9].
///
/// The linear-time cell-gain heuristic the paper lists among the min-cut
/// improvements (§1). Pass structure: starting from a (random or given)
/// partition, repeatedly move the highest-gain unlocked module whose move
/// keeps the partition within the balance tolerance, lock it, update
/// neighbor gains; at the end of the pass roll back to the best prefix.
/// Passes repeat until one fails to improve the cut. Gains and move
/// selection come from the shared gain engine (partition/gain_engine.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "baselines/random_cut.hpp"
#include "hypergraph/hypergraph.hpp"

namespace fhp {

/// Tuning knobs for the FM baseline.
struct FmOptions {
  /// Maximum |w(V_L) - w(V_R)| a move may create. 0 = auto: the largest
  /// module weight (so some move is always legal), i.e. the classic
  /// Fiduccia–Mattheyses tolerance.
  Weight max_weight_imbalance = 0;
  /// Give up after this many passes even if still improving.
  int max_passes = 32;
  /// Seed for the initial random bisection (and tie-breaking).
  std::uint64_t seed = 1;
  /// Optional starting partition; when set, its sides are used instead of
  /// a random bisection (e.g. to refine Algorithm I's output).
  std::optional<std::vector<std::uint8_t>> initial;
  /// Optional fixed-module mask (1 = module may never move). Supports
  /// pad-constrained partitioning and terminal propagation: fix the
  /// pseudo-terminals to their sides and refine the rest. Must be empty
  /// or one entry per module; fixed modules keep their `initial` side.
  std::vector<std::uint8_t> fixed;
};

/// Total moves fiduccia_mattheyses() may make across all passes:
/// 2 * max_passes * num_modules, in 64 bits (at 32 passes an int overflows
/// past ~33.5M modules).
[[nodiscard]] std::int64_t fm_move_budget(int max_passes,
                                          VertexId num_modules) noexcept;

/// Runs Fiduccia–Mattheyses on \p h. Requires >= 2 modules.
/// `iterations` in the result counts completed passes.
[[nodiscard]] BaselineResult fiduccia_mattheyses(const Hypergraph& h,
                                                 const FmOptions& options = {});

}  // namespace fhp

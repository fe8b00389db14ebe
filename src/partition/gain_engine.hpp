/// \file gain_engine.hpp
/// The Fiduccia–Mattheyses gain engine shared by every move-based
/// bipartition refiner: a cell-gain cache kept current by delta-gain
/// updates, and a per-side tournament over the modules ranked by weight
/// that returns the best candidate in a contiguous weight range.
///
/// The cell gain of module v is the cut-weight decrease of moving v to
/// the other side:
///
///     gain(v) = Σ_{e ∋ v} w(e) · ([pins of e on v's side == 1]
///                                - [pins of e on the other side == 0])
///
/// It is computed once per start() in O(pins). A move of v from side F to
/// side T then updates only the pins whose gain actually changes, using
/// the pin counts F(e), T(e) of each net of v *before* the move:
///   - T(e) == 0: every other pin (all on F) gains w(e);
///   - T(e) == 1: the single T pin loses w(e);
///   - F(e) == 1: every other pin (all on T) loses w(e);
///   - F(e) == 2: the single other F pin gains w(e).
/// Nets with T(e) >= 2 and F(e) >= 3 are never scanned, so a move costs
/// O(Σ_{e∋v} |e| + touched · log n) instead of recomputing every gain of
/// every touched pin from scratch.
///
/// Candidates: for each side, a max-tournament (iterative segment tree)
/// whose leaves are the modules in (weight, id) order. A leaf holds its
/// module while the module is unlocked and on that side, and is empty
/// otherwise; inner nodes hold the winning module id, keyed by
/// (gain, id) read from the cache. Any set of admissible moves defined by
/// a weight window is a contiguous range of ranks, so "best admissible
/// move" is one O(log n) range query per side. A gain change re-plays the
/// module's leaf-to-root path.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "partition/partition.hpp"

namespace fhp {

/// Cell gain of moving \p v to the other side of \p p: the cut-weight
/// decrease defined above, from the current pin counts. O(degree(v)).
[[nodiscard]] Weight cell_gain(const Bipartition& p, VertexId v);

/// Which module wins a tie in gain within one side's tournament.
enum class GainTie : std::uint8_t {
  kHigherId,  ///< Fiduccia–Mattheyses: the higher module id
  kLowerId,   ///< rebalance_bipartition: the lower module id
};

/// Half-open range [lo, hi) of weight ranks.
struct RankRange {
  VertexId lo = 0;
  VertexId hi = 0;
};

/// Gain cache plus per-side move tournaments over one Bipartition. The
/// engine moves modules through the partition it is bound to (which must
/// outlive it); flips made directly on the partition leave the cache
/// stale until the next start().
class GainEngine {
 public:
  /// Ranks the modules of \p p's hypergraph by (weight, id) once and
  /// allocates every buffer the engine needs; start() and move() never
  /// allocate afterwards (beyond the touched list's first growth).
  GainEngine(Bipartition& p, GainTie tie);

  /// Begins a pass: every module with a zero (or absent) entry in
  /// \p locked is unlocked, gets its cell gain computed from the current
  /// partition, and enters its side's tournament. \p locked must be empty
  /// or hold one entry per module.
  void start(std::span<const std::uint8_t> locked);

  /// Moves \p v (unlocked) to the other side of the partition, updating
  /// the gains of its neighbours by the delta rules. With \p lock the
  /// module then stays out of both tournaments until the next start();
  /// otherwise it re-enters on its new side with the negated gain.
  void move(VertexId v, bool lock);

  /// Cached cell gain of \p v (current for unlocked modules).
  [[nodiscard]] Weight gain(VertexId v) const { return gain_[v]; }

  /// Best unlocked module on side \p side among the weight ranks
  /// \p ranks: highest gain, ties by the engine's GainTie. Returns
  /// kInvalidVertex when the range holds no candidate.
  [[nodiscard]] VertexId best(std::uint8_t side, RankRange ranks) const;

  /// Ranks of the module weights w for which moving a module of weight w
  /// off side \p from keeps |(W_from - w) - (W_to + w)| <= \p tolerance
  /// (W = current side weights). Exact for any weights whose total fits
  /// in a Weight.
  [[nodiscard]] RankRange legal_ranks(std::uint8_t from,
                                      Weight tolerance) const;

  /// Number of ranks whose weight, converted to double, is below
  /// \p limit: the prefix [0, result) of lighter modules.
  [[nodiscard]] VertexId ranks_lighter_than(double limit) const;

 private:
  /// The better of two tournament entries (kInvalidVertex loses).
  [[nodiscard]] VertexId better(VertexId a, VertexId b) const;
  /// Stores \p v at leaf \p rank of side \p side and replays the path to
  /// the root.
  void set_leaf(std::uint8_t side, VertexId rank, VertexId v);
  /// Adds \p delta to u's gain (u unlocked) and queues u for a refresh.
  void bump(VertexId u, Weight delta);

  Bipartition& p_;
  GainTie tie_;
  std::vector<VertexId> rank_;          ///< weight rank of each module
  std::vector<Weight> ranked_weight_;   ///< module weight at each rank
  std::vector<Weight> gain_;
  std::vector<std::uint8_t> locked_;
  std::vector<VertexId> touched_;       ///< modules whose gain changed
  std::vector<std::uint8_t> touched_mark_;
  /// Per side: 2n nodes, leaves at [n, 2n) in rank order.
  std::vector<VertexId> tree_[2];
};

}  // namespace fhp

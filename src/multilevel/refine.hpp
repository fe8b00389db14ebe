/// \file refine.hpp
/// Per-level refinement interface of the uncoarsening phase.
///
/// The engine projects the coarse partition down one level and hands it to
/// a Refiner to improve in place. The interface is deliberately minimal so
/// alternative refiners (the flow-based corridor refiner on the roadmap)
/// slot in without touching the engine.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hypergraph/hypergraph.hpp"

namespace fhp::ml {

/// Improves a bipartition in place on one hierarchy level.
class Refiner {
 public:
  virtual ~Refiner() = default;

  /// Refines \p sides (one 0/1 entry per vertex of \p h) in place and
  /// returns the achieved cut-weight improvement (>= 0; never worsens the
  /// partition). \p seed is forked deterministically per level by the
  /// engine, so equal (instance, options, seed) runs are bit-identical.
  [[nodiscard]] virtual Weight refine(const Hypergraph& h,
                                      std::vector<std::uint8_t>& sides,
                                      std::uint64_t seed) = 0;

  /// Stable identifier for reports and traces.
  [[nodiscard]] virtual const char* name() const noexcept = 0;
};

/// Knobs of the default Fiduccia–Mattheyses refiner.
struct FmRefinerOptions {
  /// FM passes per level.
  int max_passes = 8;
  /// Weight-imbalance tolerance; 0 = the classic FM auto tolerance (the
  /// largest module weight, so some move is always legal).
  Weight max_weight_imbalance = 0;
  /// Restrict passes to the cut frontier (pins of cut nets plus one hop),
  /// locking the interior via FmOptions::fixed and recomputing the
  /// frontier between rounds. Drops per-pass cost from O(n * degree) to
  /// O(pins + frontier * degree). false = classic whole-instance FM
  /// passes at every level.
  bool boundary_only = true;
  /// Levels with at most this many vertices run classic full FM even in
  /// boundary mode. Projection carries the cut weight through unchanged,
  /// so deep refinement at the (cheap) coarse levels does the heavy
  /// lifting and the expensive fine levels only polish the frontier —
  /// the quality of full FM at a fraction of its cost
  /// (docs/multilevel.md, bench_multilevel).
  VertexId full_fm_threshold = 1024;
};

/// Marks the cut frontier of \p sides free (0) and the interior fixed (1)
/// in \p fixed: every pin of every cut net, expanded by one hop. The
/// frontier pins are listed in \p frontier. Returns false when no net is
/// cut. FmRefiner's boundary mode locks the interior with this mask.
bool boundary_mask(const Hypergraph& h, std::span<const std::uint8_t> sides,
                   std::vector<std::uint8_t>& fixed,
                   std::vector<VertexId>& frontier);

/// Fiduccia–Mattheyses per-level refinement (baselines/fm.hpp): seeds FM
/// with the projected partition and keeps the result only when it is no
/// worse than the input.
class FmRefiner final : public Refiner {
 public:
  explicit FmRefiner(const FmRefinerOptions& options = {})
      : options_(options) {}

  [[nodiscard]] Weight refine(const Hypergraph& h,
                              std::vector<std::uint8_t>& sides,
                              std::uint64_t seed) override;
  [[nodiscard]] const char* name() const noexcept override { return "fm"; }

 private:
  FmRefinerOptions options_;
};

}  // namespace fhp::ml

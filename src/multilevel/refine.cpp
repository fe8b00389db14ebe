#include "multilevel/refine.hpp"

#include <span>
#include <utility>

#include "baselines/fm.hpp"

namespace fhp::ml {

Weight cut_weight_of(const Hypergraph& h, std::span<const std::uint8_t> sides) {
  Weight cut = 0;
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    bool on[2] = {false, false};
    for (VertexId v : h.pins(e)) {
      on[sides[v]] = true;
      if (on[0] && on[1]) {
        cut += h.edge_weight(e);
        break;
      }
    }
  }
  return cut;
}

/// Marks the cut frontier free (0) and the interior fixed (1): every pin
/// of every cut net, expanded by one hop (all pins sharing a net with a
/// frontier pin) so FM has room for the short excursions its best-prefix
/// rollback thrives on. Returns false when no net is cut.
bool boundary_mask(const Hypergraph& h, std::span<const std::uint8_t> sides,
                   std::vector<std::uint8_t>& fixed,
                   std::vector<VertexId>& frontier) {
  fixed.assign(h.num_vertices(), 1);
  frontier.clear();
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    const std::span<const VertexId> pins = h.pins(e);
    bool on[2] = {false, false};
    for (VertexId v : pins) {
      on[sides[v]] = true;
      if (on[0] && on[1]) break;
    }
    if (on[0] && on[1]) {
      for (VertexId v : pins) {
        if (fixed[v]) {
          fixed[v] = 0;
          frontier.push_back(v);
        }
      }
    }
  }
  if (frontier.empty()) return false;
  for (const VertexId v : frontier) {
    for (EdgeId e : h.nets_of(v)) {
      for (VertexId u : h.pins(e)) fixed[u] = 0;
    }
  }
  return true;
}

Weight FmRefiner::refine(const Hypergraph& h,
                         std::vector<std::uint8_t>& sides,
                         std::uint64_t seed) {
  if (h.num_vertices() < 2 || options_.max_passes <= 0) return 0;
  const Weight before = cut_weight_of(h, sides);

  if (!options_.boundary_only ||
      h.num_vertices() <= options_.full_fm_threshold) {
    FmOptions fm;
    fm.seed = seed;
    fm.max_passes = options_.max_passes;
    fm.max_weight_imbalance = options_.max_weight_imbalance;
    fm.initial = sides;
    BaselineResult result = fiduccia_mattheyses(h, fm);
    // FM's per-pass rollback keeps the best prefix (including the empty
    // one), so the result is never worse; the guard is belt and braces.
    if (result.metrics.cut_weight > before) return 0;
    sides = std::move(result.sides);
    return before - result.metrics.cut_weight;
  }

  // Boundary mode: each pass runs FM with every vertex off the cut
  // frontier locked via FmOptions::fixed, then recomputes the frontier —
  // moves shift the boundary, so the candidate set grows pass over pass
  // the way classic boundary FM's gain updates would admit new cells.
  // Pass cost is O(pins + boundary * degree) instead of O(n * degree):
  // on a projected partition the cut is already small, so this is what
  // makes per-level refinement cheaper than one flat run on the finest
  // level (bench_multilevel).
  Weight current = before;
  std::vector<std::uint8_t> fixed;
  std::vector<VertexId> frontier;
  for (int pass = 0; pass < options_.max_passes; ++pass) {
    if (!boundary_mask(h, sides, fixed, frontier)) break;
    FmOptions fm;
    fm.seed = seed + static_cast<std::uint64_t>(pass);
    fm.max_passes = options_.max_passes;
    fm.max_weight_imbalance = options_.max_weight_imbalance;
    fm.initial = sides;
    fm.fixed = fixed;
    BaselineResult result = fiduccia_mattheyses(h, fm);
    if (result.metrics.cut_weight >= current) break;  // frontier converged
    current = result.metrics.cut_weight;
    sides = std::move(result.sides);
  }
  return before - current;
}

}  // namespace fhp::ml

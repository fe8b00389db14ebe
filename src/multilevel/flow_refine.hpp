/// \file flow_refine.hpp
/// Flow-based corridor refinement: the premium Refiner of the multilevel
/// engine (docs/multilevel.md, "Corridor flow refinement").
///
/// The recipe follows the network-flow refinement family (Heuer, Sanders
/// & Schlag; Gottesbüren & Hamann, PAPERS.md): around an existing cut,
/// grow a BFS *corridor* of bounded vertex weight on each side, build the
/// standard Lawler hyperedge gadget over the corridor with every
/// corridor-external module contracted into a super-source/super-sink,
/// solve the min s-t cut exactly (graph/maxflow.hpp, Dinic), and adopt
/// the induced reassignment only when it lowers the cut weight while
/// keeping the weight balance within tolerance (piggybacking on
/// rebalance_bipartition for recovery when the flow solution is
/// lopsided). Rounds repeat with an adaptive corridor budget — doubled
/// after every round, improvement counter reset on adoption — until two
/// consecutive rounds go dry or the corridor saturates.
///
/// Unlike FM, one flow solve optimizes the whole corridor globally, so it
/// escapes the move-at-a-time local minima FM sticks in; the corridor
/// bound keeps each solve far cheaper than a whole-instance flow
/// bipartition (baselines/flow.hpp). The refiner is deterministic — the
/// corridor BFS, gadget construction and Dinic all iterate in fixed CSR
/// order — so the engine's bit-identity contract across thread counts and
/// option toggles is preserved (the Refiner seed is accepted and unused).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/maxflow.hpp"
#include "multilevel/refine.hpp"
#include "util/ids.hpp"
#include "util/workspace.hpp"

namespace fhp::ml {

/// Knobs of the corridor flow refiner.
struct FlowRefinerOptions {
  /// Starting corridor budget per side, as a fraction of the instance's
  /// total vertex weight. The cut-net boundary itself is always admitted
  /// (minus one anchor per side); the budget bounds the BFS expansion.
  double corridor_weight_fraction = 0.05;
  /// Budget multiplier applied after every round ("double on
  /// improvement" — and on dry rounds too, so the second dry attempt sees
  /// a strictly larger corridor instead of replaying the first).
  double budget_growth = 2.0;
  /// Hard cap on flow rounds per refine() call.
  int max_rounds = 8;
  /// Consecutive unadopted rounds before giving up.
  int max_dry_rounds = 2;
  /// Weight-balance tolerance: a candidate is adoptable when
  /// |w(V0) - w(V1)| <= max(2, tolerance * total weight), or no worse
  /// than the imbalance the input partition already had. (The floor of 2
  /// weight units is what balance recovery can guarantee on unit-weight
  /// instances — rebalance_bipartition bounds the *deviation* to >= 1.)
  double balance_tolerance = 0.10;
  /// Instances below this vertex count are skipped (FM already solves
  /// them exhaustively; a corridor cannot leave anchors on both sides).
  VertexId min_vertices = 4;
};

/// One gadget solve over a fixed corridor. Exposed for tests and benches;
/// refine() drives it with adaptively grown corridors.
struct CorridorSolve {
  /// Candidate assignment: corridor modules re-assigned by the min cut,
  /// exterior modules unchanged.
  std::vector<std::uint8_t> sides;
  /// Cut weight of the candidate on the whole hypergraph.
  Weight cut_weight = 0;
  /// The gadget's max-flow value == min-cut weight over the nets touching
  /// the corridor (fully-exterior nets are constant and excluded).
  Weight flow_value = 0;
  /// Directed arcs the gadget needed (diagnostics: flow/gadget_arcs).
  Count gadget_arcs = 0;
  /// False when the solve was degenerate (no cut net touching the
  /// corridor, or a side without an exterior anchor); `sides` is then the
  /// unchanged input.
  bool solved = false;
};

/// Builds the Lawler gadget over \p in_corridor (1 = movable) with
/// exterior modules contracted into super terminals by their current side
/// and solves it exactly. Preconditions (typed PreconditionError):
/// corridor node/arc counts must fit the build's index range, and the
/// summed weight of the nets in the gadget must stay below
/// FlowNetwork::kInfiniteCapacity — weight regimes near the int64 ceiling
/// fail typed instead of silently saturating past the uncuttable-arc
/// capacity. Requires at least one exterior module on each side (returns
/// solved = false otherwise, never an improper candidate).
[[nodiscard]] CorridorSolve solve_corridor(
    const Hypergraph& h, const std::vector<std::uint8_t>& sides,
    const std::vector<std::uint8_t>& in_corridor);

/// solve_corridor() on a caller-owned network: \p net is reset and
/// rebuilt, so one network reused across solves keeps its buffers.
[[nodiscard]] CorridorSolve solve_corridor(
    const Hypergraph& h, const std::vector<std::uint8_t>& sides,
    const std::vector<std::uint8_t>& in_corridor, FlowNetwork& net);

/// Flow-based corridor refinement behind the engine's Refiner seat.
class FlowRefiner final : public Refiner {
 public:
  explicit FlowRefiner(const FlowRefinerOptions& options = {})
      : options_(options) {}

  [[nodiscard]] Weight refine(const Hypergraph& h,
                              std::vector<std::uint8_t>& sides,
                              std::uint64_t seed) override;
  [[nodiscard]] const char* name() const noexcept override { return "flow"; }

 private:
  FlowRefinerOptions options_;
  /// Corridor-BFS scratch (epoch-stamped marks + frontier buffers), grown
  /// once and reused across levels/rounds — same per-lane reuse contract
  /// as the Algorithm I kernels (util/workspace.hpp).
  Workspace ws_;
  /// Gadget network, reset per solve so its slot and label buffers are
  /// grown once and reused across rounds and levels (per instance, never
  /// shared between lanes).
  FlowNetwork net_{0};
};

/// "flow+fm": one corridor-flow pass then FM polish per level. Flow
/// repairs the global mistakes FM cannot see; FM then cleans up the
/// single-vertex moves a corridor boundary leaves behind. This is the
/// premium engine configuration (bench_flow_refine).
class FlowFmRefiner final : public Refiner {
 public:
  FlowFmRefiner(const FlowRefinerOptions& flow_options = {},
                const FmRefinerOptions& fm_options = {})
      : flow_(flow_options), fm_(fm_options) {}

  [[nodiscard]] Weight refine(const Hypergraph& h,
                              std::vector<std::uint8_t>& sides,
                              std::uint64_t seed) override {
    return flow_.refine(h, sides, seed) + fm_.refine(h, sides, seed);
  }
  [[nodiscard]] const char* name() const noexcept override {
    return "flow+fm";
  }

 private:
  FlowRefiner flow_;
  FmRefiner fm_;
};

/// Which per-level refiner the engine runs.
enum class RefinerChoice {
  kFm,      ///< boundary FM (the fast default)
  kFlow,    ///< corridor flow only
  kFlowFm,  ///< corridor flow then FM polish (premium quality)
};

/// Stable name for reports/CLI ("fm" / "flow" / "flow+fm").
[[nodiscard]] const char* to_string(RefinerChoice choice) noexcept;

/// Instantiates the chosen refiner with the given knob sets.
[[nodiscard]] std::unique_ptr<Refiner> make_refiner(
    RefinerChoice choice, const FmRefinerOptions& fm_options = {},
    const FlowRefinerOptions& flow_options = {});

}  // namespace fhp::ml

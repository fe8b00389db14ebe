/// \file algorithm1.hpp
/// Algorithm I — the paper's O(n²) hypergraph min-cut bipartitioner.
///
/// Pipeline per start (paper §2 "The Basic Algorithm"):
///   1. optionally drop nets larger than a threshold (§3);
///   2. build the intersection graph G;
///   3. find a pseudo-diameter pair by random longest BFS path;
///   4. grow BFS regions from both endpoints to cut G;
///   5. extract the boundary set/graph and the induced partial bipartition;
///   6. complete the partition with Complete-Cut (greedy / weighted / exact);
///   7. map back to a module-side assignment and score on the *original*
///      hypergraph (filtered large nets still count if they cross).
///
/// The multi-start extension (§4 "Extensions": "examined 50 random longest
/// paths and selected the best result") reuses G across starts. If G is
/// disconnected (the paper's pathological c = 0 case), the connected
/// blocks are packed onto two sides directly, yielding a zero cut on the
/// filtered instance.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/boundary.hpp"
#include "core/complete_cut.hpp"
#include "graph/bfs.hpp"
#include "graph/reorder.hpp"
#include "hypergraph/hypergraph.hpp"
#include "obs/report.hpp"
#include "partition/metrics.hpp"
#include "partition/partition.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/workspace.hpp"

namespace fhp {

/// Objective used to pick the best result across starts.
enum class Objective {
  kCutsize,   ///< minimize cut nets, tie-break on weight imbalance
  kQuotient,  ///< minimize cut / (|V_L| * |V_R|) (paper §1, [20])
};

/// How the initial graph cut of G is generated from the pseudo-diameter
/// endpoints (paper §2 uses the bidirectional BFS; the level sweep is one
/// of the §4 "alternative greedy methods" ablations).
enum class InitialCutStrategy {
  /// Grow BFS regions from both endpoints until they meet (the paper's
  /// "BFS from two distant nodes ... to define a cutline").
  kBidirectionalBfs,
  /// BFS from one endpoint only; try *every* level-prefix cut and keep
  /// the best completed result. More thorough, costs a factor of the BFS
  /// depth per start.
  kLevelSweep,
};

/// Tuning knobs of Algorithm I. Defaults reproduce the paper's reported
/// configuration (50 random longest paths, greedy completion, net-size
/// threshold 10).
struct Algorithm1Options {
  /// Nets with more pins than this are ignored while partitioning (they
  /// still count in the reported cut). 0 disables the filter. Paper §3:
  /// "a size threshold as low as k >= 10 [has] very small expected error".
  std::uint32_t large_edge_threshold = 10;
  /// Number of random longest-path starts examined; the best completion
  /// wins. Paper §4 used 50.
  int num_starts = 50;
  /// BFS sweeps when hunting for a pseudo-diameter endpoint pair
  /// (1 = the paper's single "longest BFS path", 2 = double sweep).
  int bfs_sweeps = 2;
  /// Boundary completion strategy.
  CompletionStrategy completion = CompletionStrategy::kGreedy;
  /// How the initial cut of G is produced per start.
  InitialCutStrategy initial_cut = InitialCutStrategy::kBidirectionalBfs;
  /// Selection objective across starts.
  Objective objective = Objective::kCutsize;
  /// Assign modules not forced by any net (isolated, or touched only by
  /// loser nets) to the lighter side. Disable to study the raw heuristic.
  bool balance_free_vertices = true;
  /// Also consider the "floating split" candidate — modules on no
  /// surviving net versus everything else — which cuts zero filtered nets
  /// but can be arbitrarily unbalanced. Off by default (the published
  /// Algorithm I never inspects it); turn on when hunting the absolute
  /// minimum proper cut.
  bool consider_floating_split = false;
  /// Memoize completed starts by their pseudo-diameter endpoint pair:
  /// distinct random starts frequently converge to the same (s, t) after
  /// the BFS sweeps, and everything downstream of the pair is a pure
  /// function of it, so repeat pairs reuse the completed result instead of
  /// recomputing it. Bit-identical to the unmemoized run at any thread
  /// count (hits are counted deterministically; see docs/performance.md).
  /// Off = recompute every start (the pre-memoization behavior, kept for
  /// differential benching/testing).
  bool memoize_starts = true;
  /// Relabel the intersection graph for cache locality before the starts
  /// run (graph/reorder.hpp, RCM-lite ordering): the BFS-heavy steps 1-2
  /// then traverse nearly-sequential memory instead of hopping across a
  /// CSR laid out in net-numbering order. The initial cut is mapped back
  /// through the inverse permutation before boundary extraction, and
  /// `farthest` tie-breaks compare original net ids, so the partition —
  /// not merely the cutsize — is bit-identical with reorder on or off at
  /// any thread count (gated by bench_hotpath and the reorder property
  /// test; see docs/performance.md). Off = traverse in input order.
  bool reorder = true;
  /// RNG seed; every run with the same seed and input is identical.
  std::uint64_t seed = 1;
  /// Execution lanes for the multi-start loop and the intersection-graph
  /// build: 1 = serial, N > 1 = a pool of N lanes, 0 = resolve from the
  /// FHP_THREADS environment variable (unset -> serial). The chosen
  /// partition is bit-identical at every setting: starts come from the
  /// same seeded permutation and results are reduced in start order, so
  /// threads only change wall time, never the answer (docs/parallelism.md).
  int threads = 0;
  /// Attach an observability snapshot (phase times + counters recorded
  /// since the last obs::reset()) to the result. Off by default: the
  /// snapshot copies the whole span tree, which multi-run harnesses that
  /// aggregate globally do not want per call.
  bool collect_trace = false;
};

/// Output of Algorithm I, with diagnostics for the experiment harness.
struct Algorithm1Result {
  std::vector<std::uint8_t> sides;  ///< side per module of the input
  PartitionMetrics metrics;         ///< scored on the original hypergraph
  // ---- diagnostics (about the best start) ----
  std::uint32_t pseudo_diameter = 0;   ///< d(s, t) of the chosen pair
  VertexId boundary_size = 0;          ///< |B|
  VertexId winner_count = 0;           ///< winners in the completion
  VertexId loser_count = 0;            ///< losers (upper bound on cut)
  EdgeId filtered_edges = 0;           ///< nets dropped by the threshold
  int starts_run = 0;                  ///< starts actually examined
  bool disconnected_shortcut = false;  ///< took the c = 0 fast path
  /// Observability snapshot (see Algorithm1Options::collect_trace); empty
  /// unless requested. Cumulative since the last obs::reset().
  obs::TraceReport trace;
};

/// Runs Algorithm I on \p h. Requires at least one vertex.
[[nodiscard]] Algorithm1Result algorithm1(const Hypergraph& h,
                                          const Algorithm1Options& options = {});

/// Precomputed state shared across starts; exposed so tests and benches
/// can run single deterministic starts.
class Algorithm1Context {
 public:
  /// Prepares the filtered hypergraph and its intersection graph.
  Algorithm1Context(const Hypergraph& h, const Algorithm1Options& options);

  /// The original hypergraph.
  [[nodiscard]] const Hypergraph& original() const noexcept { return *h_; }
  /// The filtered hypergraph actually partitioned.
  [[nodiscard]] const Hypergraph& filtered() const noexcept { return filtered_; }
  /// Intersection graph of the filtered hypergraph.
  [[nodiscard]] const Graph& intersection() const noexcept { return g_; }
  /// Nets dropped by the large-net filter.
  [[nodiscard]] EdgeId filtered_edge_count() const noexcept {
    return static_cast<EdgeId>(h_->num_edges() - filtered_.num_edges());
  }
  /// True iff the filtered intersection graph is disconnected or empty.
  [[nodiscard]] bool is_degenerate() const noexcept { return degenerate_; }
  /// True iff a non-identity locality permutation is in effect
  /// (Algorithm1Options::reorder on a non-degenerate instance).
  [[nodiscard]] bool reordered() const noexcept { return reordered_; }
  /// The locality permutation (identity-sized only when reordered()).
  [[nodiscard]] const Permutation& permutation() const noexcept {
    return perm_;
  }
  /// The graph the BFS steps actually traverse: the permuted intersection
  /// graph when reordered(), otherwise intersection() itself.
  [[nodiscard]] const Graph& traversal_graph() const noexcept {
    return reordered_ ? g_perm_ : g_;
  }

  /// Reusable per-start (per-lane) scratch: the Workspace substrate plus
  /// the structures the pipeline refills every start. One StartScratch per
  /// execution lane makes the steady-state hot loop allocation-free;
  /// contents never influence results (docs/performance.md).
  struct StartScratch {
    Workspace ws;
    BidirectionalCut cut;
    BoundaryStructure boundary;
    CompletionResult completion;
    std::vector<std::uint32_t> levels;      ///< level-sweep BFS distances
    std::vector<std::uint8_t> g_side;       ///< candidate G-cut sides
    std::vector<std::uint8_t> forced;       ///< per-module forced sides
    std::vector<VertexId> unforced;         ///< balance-assignable modules
    std::vector<std::uint8_t> is_unforced;  ///< membership bytes for above
    std::vector<Weight> node_weight;        ///< weighted-completion pulls
  };

  /// Runs one start from G-vertex \p start; returns the completed result.
  /// Precondition: !is_degenerate() and start < intersection().num_vertices().
  [[nodiscard]] Algorithm1Result run_single(VertexId start) const;

  /// Workspace-backed run_single: bit-identical result, scratch reused
  /// from \p scratch (the caller keeps one per lane across starts).
  [[nodiscard]] Algorithm1Result run_single(VertexId start,
                                            StartScratch& scratch) const;

  /// Steps 1-2 only: the pseudo-diameter endpoint pair of \p start's
  /// random longest BFS path. Everything downstream of the pair is a pure
  /// function of it — the memoization key (ordered: the bidirectional
  /// cut's tie-breaking is orientation-sensitive, so (s, t) and (t, s) are
  /// distinct keys). Precondition: !is_degenerate() and
  /// intersection().num_vertices() >= 2.
  [[nodiscard]] DiameterPair find_pair(VertexId start, Workspace& ws) const;

  /// One scratch bundle per execution lane of pool() (one when serial).
  using LaneScratch = std::vector<std::unique_ptr<StartScratch>>;
  [[nodiscard]] LaneScratch make_lane_scratch() const;

  /// find_pair() for every start, in two phases on pool(): the first BFS
  /// sweep of every start, then the remaining sweeps once per distinct
  /// first-sweep endpoint (they are a pure function of it, see
  /// continue_sweeps()). Equal, element by element, to calling find_pair()
  /// per start, at any lane count. \p lanes comes from make_lane_scratch().
  [[nodiscard]] std::vector<DiameterPair> find_pairs(
      std::span<const VertexId> starts, const LaneScratch& lanes) const;

  /// Steps 3-7 for an endpoint pair produced by find_pair(): initial cut,
  /// boundary, completion, assembly, scoring.
  [[nodiscard]] Algorithm1Result run_from_pair(const DiameterPair& pair,
                                               StartScratch& scratch) const;

  /// The configured multi-start (options.num_starts starts from one seeded
  /// permutation, memoized or not, best result in start order, plus the
  /// optional floating split). Precondition: !is_degenerate().
  [[nodiscard]] Algorithm1Result run_starts() const;

  /// Handles the degenerate cases (no usable nets, or disconnected G):
  /// packs connected blocks onto two sides by weight. A block that holds
  /// most of the weight is first bisected by run_starts() on its slice()
  /// (see docs/algorithm.md, "Disconnected G").
  [[nodiscard]] Algorithm1Result run_degenerate() const;

  /// The sub-instance of one connected component of G, cut from this
  /// context's own structures: exactly what Algorithm I would build from
  /// scratch on the sub-hypergraph induced by the component's modules.
  struct BlockSlice {
    /// induced_subhypergraph(original(), block modules).hypergraph
    Hypergraph block;
    /// The large-net filter applied to `block`.
    Hypergraph filtered;
    /// intersection_graph(filtered): the component's rows of
    /// intersection(), plus rows for any net over the threshold whose
    /// restriction to the block falls to 2..threshold pins.
    Graph g;
    /// block module -> module of original() (ascending).
    std::vector<VertexId> kept_vertices;
  };
  /// Slices G-component \p component (a label of the components of
  /// intersection()).
  [[nodiscard]] BlockSlice slice(VertexId component) const;

  /// Candidate that separates modules on no surviving net from the rest
  /// (cuts no filtered net at all). Returns an improper (rejectable)
  /// result when there are no floating modules.
  [[nodiscard]] Algorithm1Result run_floating_split() const;

  /// Steps 3-5 of the pipeline: given a 0/1 side per G-vertex, extract
  /// the boundary, complete it with the configured strategy, and assemble
  /// a full module partition. Exposed for experimentation with custom
  /// initial cuts.
  [[nodiscard]] Algorithm1Result complete_from_cut(
      std::vector<std::uint8_t> g_side) const;

  /// The context's thread pool, or null when the configuration is serial
  /// (Algorithm1Options::threads resolved to 1).
  [[nodiscard]] ThreadPool* pool() const noexcept { return pool_; }

  /// Deterministic per-start generator: the fork(start_index) child of a
  /// master seeded from options.seed. The contract (see Rng::fork): equal
  /// (seed, start_index) gives a bit-equal stream regardless of thread
  /// count or the order starts execute in. The current pipeline draws no
  /// randomness after the start permutation, so this exists as the
  /// substrate for future stochastic per-start steps (randomized
  /// tie-breaks, perturbation restarts).
  [[nodiscard]] Rng start_rng(std::uint64_t start_index) const noexcept {
    return Rng(options_.seed).fork(start_index);
  }

 private:
  /// Context over a block slice: no filter, build or components pass (the
  /// slice is connected by construction), starts run on \p pool.
  Algorithm1Context(const Hypergraph& block, Hypergraph filtered, Graph g,
                    ThreadPool* pool, const Algorithm1Options& options);

  /// Locality permutation for the BFS-heavy steps (reorder option).
  void prepare_traversal();

  /// Step 1 split at the first sweep's endpoint v (see find_pairs()).
  [[nodiscard]] DiameterPair first_sweep(VertexId start, Workspace& ws) const;
  [[nodiscard]] DiameterPair continue_sweeps(VertexId v, Workspace& ws) const;

  /// Steps 3-5 body shared by complete_from_cut() and run_from_pair():
  /// boundary extraction, completion, and assembly on \p scratch.
  [[nodiscard]] Algorithm1Result complete_from_cut_impl(
      std::span<const std::uint8_t> g_side, StartScratch& scratch) const;

  const Hypergraph* h_;
  Algorithm1Options options_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;  ///< owned_pool_, or a parent's pool
  Hypergraph filtered_;
  Graph g_;
  Permutation perm_;   ///< locality relabeling of g_ (when reordered_)
  Graph g_perm_;       ///< g_ relabeled by perm_ (when reordered_)
  bool reordered_ = false;
  bool degenerate_ = false;
  std::vector<VertexId> g_component_;  ///< component label per G-vertex
  VertexId g_component_count_ = 0;
};

}  // namespace fhp

#include "support/legacy_fm.hpp"

#include <algorithm>
#include <memory>
#include <queue>
#include <utility>

#include "multilevel/flow_refine.hpp"
#include "obs/counters.hpp"
#include "partition/partition.hpp"

namespace fhp::test {

namespace {

/// Gain of moving \p v to the other side: net weight uncut minus net
/// weight newly cut (the Fiduccia–Mattheyses cell gain).
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

/// Lazy max-heap entry: (gain, vertex). Entries go stale when the vertex
/// moves, locks, or its gain changes; staleness is detected at pop time
/// against the authoritative gain/lock arrays.
using HeapEntry = std::pair<Weight, VertexId>;
using GainHeap = std::priority_queue<HeapEntry>;

class FmPass {
 public:
  FmPass(Bipartition& p, Weight tolerance, std::int64_t& moves_budget,
         const std::vector<std::uint8_t>& fixed)
      : p_(p),
        tolerance_(tolerance),
        moves_budget_(moves_budget),
        fixed_(fixed) {}

  /// Runs one pass; returns true if the cut (or, at equal cut, the weight
  /// imbalance) improved.
  bool run() {
    const Hypergraph& h = p_.hypergraph();
    const VertexId n = h.num_vertices();
    if (fixed_.empty()) {
      locked_.assign(n, 0);
    } else {
      locked_ = fixed_;  // fixed modules start (and stay) locked
    }
    gain_.resize(n);
    heap_[0] = GainHeap();
    heap_[1] = GainHeap();
    for (VertexId v = 0; v < n; ++v) {
      if (locked_[v]) continue;
      gain_[v] = cell_gain(p_, v);
      heap_[p_.side(v)].emplace(gain_[v], v);
    }

    const Weight start_cut = p_.cut_weight();
    const Weight start_imbalance = p_.weight_imbalance();
    Weight best_cut = start_cut;
    Weight best_imbalance = start_imbalance;
    std::size_t best_prefix = 0;
    std::vector<VertexId> moves;

    while (moves_budget_ > 0) {
      const VertexId v = pick_move();
      if (v == kInvalidVertex) break;
      --moves_budget_;
      apply_move(v);
      moves.push_back(v);
      const Weight cut = p_.cut_weight();
      const Weight imbalance = p_.weight_imbalance();
      if (cut < best_cut || (cut == best_cut && imbalance < best_imbalance)) {
        best_cut = cut;
        best_imbalance = imbalance;
        best_prefix = moves.size();
      }
    }

    FHP_COUNTER_ADD("fm/moves", static_cast<long long>(moves.size()));
    FHP_COUNTER_ADD("fm/moves_rolled_back",
                    static_cast<long long>(moves.size() - best_prefix));

    // Roll back to the best prefix.
    while (moves.size() > best_prefix) {
      p_.flip(moves.back());
      moves.pop_back();
    }
    return best_cut < start_cut ||
           (best_cut == start_cut && best_imbalance < start_imbalance &&
            best_prefix > 0);
  }

 private:
  /// True iff moving \p v keeps the partition within tolerance.
  [[nodiscard]] bool legal(VertexId v) const {
    const Hypergraph& h = p_.hypergraph();
    const std::uint8_t s = p_.side(v);
    const Weight w = h.vertex_weight(v);
    const Weight from = p_.weight(s) - w;
    const Weight to = p_.weight(static_cast<std::uint8_t>(1 - s)) + w;
    return std::max(from, to) - std::min(from, to) <= tolerance_;
  }

  /// Highest-gain unlocked legal move across both side heaps.
  VertexId pick_move() {
    HeapEntry best{0, kInvalidVertex};
    bool have = false;
    std::vector<HeapEntry> stash;
    for (int s = 0; s < 2; ++s) {
      GainHeap& heap = heap_[s];
      stash.clear();
      while (!heap.empty()) {
        const HeapEntry top = heap.top();
        const VertexId v = top.second;
        if (locked_[v] || p_.side(v) != s || gain_[v] != top.first) {
          heap.pop();  // stale
          continue;
        }
        if (!legal(v)) {
          stash.push_back(top);  // valid but currently illegal: keep
          heap.pop();
          continue;
        }
        if (!have || top.first > best.first) {
          best = top;
          have = true;
        }
        break;
      }
      for (const HeapEntry& entry : stash) heap.push(entry);
    }
    return have ? best.second : kInvalidVertex;
  }

  /// Executes the move and refreshes gains of affected unlocked pins.
  void apply_move(VertexId v) {
    const Hypergraph& h = p_.hypergraph();
    locked_[v] = 1;
    p_.flip(v);
    for (EdgeId e : h.nets_of(v)) {
      for (VertexId u : h.pins(e)) {
        if (locked_[u]) continue;
        const Weight g = cell_gain(p_, u);
        if (g != gain_[u]) {
          gain_[u] = g;
          heap_[p_.side(u)].emplace(g, u);
        }
      }
    }
  }

  Bipartition& p_;
  Weight tolerance_;
  std::int64_t& moves_budget_;
  const std::vector<std::uint8_t>& fixed_;
  std::vector<std::uint8_t> locked_;
  std::vector<Weight> gain_;
  GainHeap heap_[2];
};

/// ml::FlowFmRefiner with the legacy FM polish.
class LegacyFlowFmRefiner final : public ml::Refiner {
 public:
  LegacyFlowFmRefiner(const ml::FlowRefinerOptions& flow_options,
                      const ml::FmRefinerOptions& fm_options)
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
  ml::FlowRefiner flow_;
  LegacyFmRefiner fm_;
};

/// ml::make_refiner with the legacy FM.
std::unique_ptr<ml::Refiner> make_legacy_refiner(const ml::PartitionPlan& plan) {
  switch (plan.refiner) {
    case ml::RefinerChoice::kFlow:
      return std::make_unique<ml::FlowRefiner>(plan.flow_refine);
    case ml::RefinerChoice::kFlowFm:
      return std::make_unique<LegacyFlowFmRefiner>(plan.flow_refine,
                                                   plan.refine);
    case ml::RefinerChoice::kFm:
      break;
  }
  return std::make_unique<LegacyFmRefiner>(plan.refine);
}

}  // namespace

BaselineResult legacy_fiduccia_mattheyses(const Hypergraph& h,
                                          const FmOptions& options) {
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
    tolerance = 2 * max_w;
  }
  tolerance = std::max(tolerance, p.weight_imbalance());

  BaselineResult result;
  std::int64_t moves_budget =
      fm_move_budget(options.max_passes, h.num_vertices());
  FHP_REQUIRE(options.fixed.empty() ||
                  options.fixed.size() == h.num_vertices(),
              "fixed mask must be empty or cover every module");
  int passes = 0;
  for (; passes < options.max_passes; ++passes) {
    FmPass pass(p, tolerance, moves_budget, options.fixed);
    if (!pass.run()) break;
  }
  FHP_COUNTER_ADD("fm/passes", passes);
  result.sides = p.sides();
  result.metrics = compute_metrics(p);
  result.iterations = passes;
  return result;
}

Weight LegacyFmRefiner::refine(const Hypergraph& h,
                               std::vector<std::uint8_t>& sides,
                               std::uint64_t seed) {
  if (h.num_vertices() < 2 || options_.max_passes <= 0) return 0;
  const Weight before = Bipartition(h, sides).cut_weight();

  if (!options_.boundary_only ||
      h.num_vertices() <= options_.full_fm_threshold) {
    FmOptions fm;
    fm.seed = seed;
    fm.max_passes = options_.max_passes;
    fm.max_weight_imbalance = options_.max_weight_imbalance;
    fm.initial = sides;
    BaselineResult result = legacy_fiduccia_mattheyses(h, fm);
    if (result.metrics.cut_weight > before) return 0;
    sides = std::move(result.sides);
    return before - result.metrics.cut_weight;
  }

  Weight current = before;
  std::vector<std::uint8_t> fixed;
  std::vector<VertexId> frontier;
  for (int pass = 0; pass < options_.max_passes; ++pass) {
    if (!ml::boundary_mask(h, sides, fixed, frontier)) break;
    FmOptions fm;
    fm.seed = seed + static_cast<std::uint64_t>(pass);
    fm.max_passes = options_.max_passes;
    fm.max_weight_imbalance = options_.max_weight_imbalance;
    fm.initial = sides;
    fm.fixed = fixed;
    BaselineResult result = legacy_fiduccia_mattheyses(h, fm);
    if (result.metrics.cut_weight >= current) break;
    current = result.metrics.cut_weight;
    sides = std::move(result.sides);
  }
  return before - current;
}

ml::EngineResult legacy_partition_auto(const Hypergraph& h,
                                       const ml::PartitionPlan& plan) {
  const bool use_multilevel =
      plan.engine == ml::EngineChoice::kMultilevel ||
      (plan.engine == ml::EngineChoice::kAuto &&
       h.num_vertices() >= plan.multilevel_threshold);
  ml::EngineResult result;
  if (!use_multilevel) {
    Algorithm1Result flat = algorithm1(h, plan.algorithm1);
    result.sides = std::move(flat.sides);
    result.metrics = flat.metrics;
    result.engine_used = ml::EngineChoice::kFlat;
    if (plan.refiner != ml::RefinerChoice::kFm && h.num_vertices() >= 2) {
      const std::unique_ptr<ml::Refiner> post = make_legacy_refiner(plan);
      static_cast<void>(post->refine(h, result.sides, plan.algorithm1.seed));
      result.metrics = compute_metrics(Bipartition(h, result.sides));
    }
    return result;
  }
  ml::EngineOptions options;
  options.coarsening = plan.coarsening;
  options.initial = plan.algorithm1;
  options.initial.num_starts = plan.coarse_num_starts;
  options.refine = plan.refine;
  options.refiner = plan.refiner;
  options.flow_refine = plan.flow_refine;
  options.seed = plan.algorithm1.seed;
  options.threads = plan.algorithm1.threads;
  const std::unique_ptr<ml::Refiner> refiner = make_legacy_refiner(plan);
  ml::MultilevelResult ml_result =
      ml::multilevel_partition(h, options, *refiner);
  result.sides = std::move(ml_result.sides);
  result.metrics = ml_result.metrics;
  result.engine_used = ml::EngineChoice::kMultilevel;
  result.levels = ml_result.levels;
  return result;
}

}  // namespace fhp::test

/// \file layers.cpp
/// Metric bookkeeping, statistics, and the composed pipeline that times
/// every layer of ml::partition_auto from the outside.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>

#include "bench.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"
#include "partition/partition.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry.value = value;
      entry.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

std::string MetricSet::to_json() const {
  fhp::json::Writer w;
  w.begin_object();
  for (const Entry& entry : entries_) {
    w.key(entry.name).begin_object();
    w.member("value", entry.value);
    w.member("unit", entry.unit);
    w.end_object();
  }
  w.end_object();
  return std::move(w).take();
}

void Tally::record(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(q * static_cast<double>(xs.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return xs[std::min(index, xs.size() - 1)];
}

double tail_quantile(std::size_t n) {
  if (n >= 200) return 0.95;
  const double q = 1.0 - 10.0 / static_cast<double>(n);
  return std::max(0.5, q);
}

double max_side_ratio(const fhp::PartitionMetrics& metrics) {
  const Weight total = metrics.left_weight + metrics.right_weight;
  const Weight target = (total + 1) / 2;
  return static_cast<double>(std::max(metrics.left_weight,
                                      metrics.right_weight)) /
         static_cast<double>(std::max<Weight>(1, target));
}

double LayerTimes::pipeline_s() const {
  return parse_s + coarsen_s + initial_s + project_s + refine_coarse_s +
         refine_fine_s + metrics_s + write_s;
}

LayerTimes& LayerTimes::operator+=(const LayerTimes& other) {
  parse_s += other.parse_s;
  coarsen_s += other.coarsen_s;
  initial_s += other.initial_s;
  project_s += other.project_s;
  refine_coarse_s += other.refine_coarse_s;
  refine_fine_s += other.refine_fine_s;
  flow_s += other.flow_s;
  metrics_s += other.metrics_s;
  write_s += other.write_s;
  audit_s += other.audit_s;
  return *this;
}

namespace {

using fhp::ml::RefinerChoice;

/// Adds the wall time of its scope to a slot.
class ScopeTimer {
 public:
  explicit ScopeTimer(double& slot) : slot_(slot), start_(now_s()) {}
  ~ScopeTimer() { slot_ += now_s() - start_; }
  ScopeTimer(const ScopeTimer&) = delete;
  ScopeTimer& operator=(const ScopeTimer&) = delete;

 private:
  double& slot_;
  double start_;
};

/// Timing decorator over the refiners make_refiner() builds. flow+fm is
/// composed here as make_refiner(flow) then make_refiner(fm) on the same
/// seed, which is how FlowFmRefiner is defined, so the flow share can be
/// timed on its own. Every call's time goes to the slot the caller
/// selects per level.
class TimedRefiner final : public fhp::ml::Refiner {
 public:
  TimedRefiner(const fhp::ml::PartitionPlan& plan, LayerTimes& times)
      : times_(times) {
    const bool flow = plan.refiner != RefinerChoice::kFm;
    const bool fm = plan.refiner != RefinerChoice::kFlow;
    if (flow) {
      flow_ = fhp::ml::make_refiner(RefinerChoice::kFlow, plan.refine,
                                    plan.flow_refine);
    }
    if (fm) {
      fm_ = fhp::ml::make_refiner(RefinerChoice::kFm, plan.refine,
                                  plan.flow_refine);
    }
  }

  void charge_to(double& slot) { slot_ = &slot; }

  [[nodiscard]] Weight refine(const Hypergraph& h,
                              std::vector<std::uint8_t>& sides,
                              std::uint64_t seed) override {
    ScopeTimer level(*slot_);
    Weight gain = 0;
    if (flow_) {
      ScopeTimer flow(times_.flow_s);
      gain += flow_->refine(h, sides, seed);
    }
    if (fm_) gain += fm_->refine(h, sides, seed);
    return gain;
  }
  [[nodiscard]] const char* name() const noexcept override {
    return "timed";
  }

 private:
  LayerTimes& times_;
  std::unique_ptr<fhp::ml::Refiner> flow_;
  std::unique_ptr<fhp::ml::Refiner> fm_;
  double* slot_ = nullptr;
};

}  // namespace

ComposedResult composed_partition(const Hypergraph& h,
                                  const fhp::ml::PartitionPlan& plan,
                                  LayerTimes& times) {
  namespace ml = fhp::ml;
  ComposedResult result;
  TimedRefiner refiner(plan, times);
  const bool multilevel =
      plan.engine == ml::EngineChoice::kMultilevel ||
      (plan.engine == ml::EngineChoice::kAuto &&
       h.num_vertices() >= plan.multilevel_threshold);

  if (!multilevel) {
    fhp::Algorithm1Result flat;
    {
      ScopeTimer t(times.initial_s);
      flat = fhp::algorithm1(h, plan.algorithm1);
    }
    result.sides = std::move(flat.sides);
    result.metrics = flat.metrics;
    result.coarsest_vertices = h.num_vertices();
    if (plan.refiner != RefinerChoice::kFm && h.num_vertices() >= 2) {
      refiner.charge_to(times.refine_fine_s);
      result.refine_gain =
          refiner.refine(h, result.sides, plan.algorithm1.seed);
      if (result.refine_gain > 0) {
        ScopeTimer t(times.metrics_s);
        result.metrics = fhp::compute_metrics(fhp::Bipartition(h, result.sides));
      }
    }
    return result;
  }

  // The engine's option mapping (partition_auto -> multilevel_partition).
  fhp::Algorithm1Options initial = plan.algorithm1;
  initial.num_starts = plan.coarse_num_starts;
  initial.collect_trace = false;

  std::unique_ptr<fhp::ThreadPool> pool;
  std::unique_ptr<ml::Hierarchy> hierarchy;
  {
    ScopeTimer t(times.coarsen_s);
    const int lanes = fhp::resolve_threads(initial.threads);
    if (lanes > 1) pool = std::make_unique<fhp::ThreadPool>(lanes);
    hierarchy = std::make_unique<ml::Hierarchy>(
        ml::build_hierarchy(h, plan.coarsening, pool.get()));
  }
  const Hypergraph& coarsest = hierarchy->coarsest();
  const std::size_t levels = hierarchy->num_levels();
  result.levels = static_cast<int>(levels);
  result.coarsest_vertices = coarsest.num_vertices();

  std::vector<std::uint8_t> sides;
  {
    ScopeTimer t(times.initial_s);
    sides = fhp::algorithm1(coarsest, initial).sides;
  }
  sides.reserve(h.num_vertices());

  const fhp::Rng master(plan.algorithm1.seed);
  refiner.charge_to(levels == 0 ? times.refine_fine_s : times.refine_coarse_s);
  result.refine_gain += refiner.refine(coarsest, sides, master.fork(levels)());
  for (std::size_t i = levels; i-- > 0;) {
    {
      ScopeTimer t(times.project_s);
      const std::span<const std::uint8_t> projected =
          hierarchy->project(i, sides);
      sides.assign(projected.begin(), projected.end());
    }
    refiner.charge_to(i == 0 ? times.refine_fine_s : times.refine_coarse_s);
    result.refine_gain +=
        refiner.refine(hierarchy->input_of(i), sides, master.fork(i)());
  }
  {
    ScopeTimer t(times.metrics_s);
    result.metrics = fhp::compute_metrics(fhp::Bipartition(h, sides));
  }
  result.sides = std::move(sides);
  return result;
}

void drain_counters(CounterTotals& totals) {
  for (const auto& [name, value] :
       fhp::obs::Counters::instance().counters_snapshot()) {
    totals[name] += static_cast<double>(value);
  }
  fhp::obs::reset();
}

}  // namespace perfbench

/// \file perfbench.cpp
/// The benchmark's runner binary (see ../README.md). run.py builds it twice,
/// tracing OFF and ON, and calls it from a per-run directory:
///
///   fhp_perfbench --workload W --seed N --seconds S --mode M
///                 --lanes L [--serve-bin PATH] [--count K] [--quick]
///
/// Modes:
///   measure    end-to-end metrics of the workload (tracing-OFF build)
///   trace      per-layer metrics: every instance through partition_auto
///              and through the composed V-cycle, checked bit-identical
///   companion  untraced partition_auto walls of the first K instances
///              the trace mode covered (for the tracing overhead)
///   selftest   composed V-cycle identity on small instances of every path
///
/// The last stdout line is one JSON object: correct, attempted, failed,
/// metrics, and (trace / companion) the partition_auto walls measured.
/// Exit code 0 when every check passed, 1 when one failed, 2 on usage.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "gen/circuit.hpp"
#include "gen/sharded.hpp"
#include "hypergraph/io.hpp"
#include "obs/report.hpp"
#include "partition/partition.hpp"
#include "util/json.hpp"
#include "util/memory.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "validate/audit.hpp"

namespace perfbench {
namespace {

namespace ml = fhp::ml;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string mode = "measure";
  int lanes = 2;
  std::string serve_bin;
  std::size_t count = 0;
  bool quick = false;
};

/// Times the measure mode repeats each set-up; setup_s is the median. The
/// other modes report no set-up time and set up once.
int setup_repeats(const Args& args) { return args.mode == "measure" ? 3 : 1; }

double file_mb(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) / 1e6
                                        : 0.0;
}

double peak_rss_mib() {
  return static_cast<double>(fhp::peak_rss_bytes()) / (1024.0 * 1024.0);
}

bool write_sides(const std::string& path,
                 const std::vector<std::uint8_t>& sides) {
  std::ofstream out(path);
  fhp::write_partition(out, sides);
  out.flush();
  return out.good();
}

bool audit_ok(const Hypergraph& h, const std::vector<std::uint8_t>& sides,
              const fhp::PartitionMetrics& metrics) {
  return fhp::validate::audit_partition(h, sides).ok() &&
         fhp::validate::audit_metrics(h, sides, metrics).ok();
}

/// One partitioning input of a workload: an .hgr file and the plan
/// partition_auto runs on it.
struct Instance {
  std::string path;
  ml::PartitionPlan plan;
};

/// One parse -> partition_auto -> write pass.
struct PipelineRun {
  double wall_s = 0;
  Hypergraph h;
  ml::EngineResult result;
  bool written = false;
};

PipelineRun run_pipeline(const Instance& instance, const std::string& out) {
  PipelineRun run;
  const double start = now_s();
  run.h = fhp::read_hmetis_file(instance.path);
  run.result = ml::partition_auto(run.h, instance.plan);
  run.written = write_sides(out, run.result.sides);
  run.wall_s = now_s() - start;
  return run;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// The batch workload: gate-array instances written by write_sharded_hmetis.
struct BatchSpec {
  double scale = 1;  ///< gate_array_params scale (800 modules per unit)
  std::size_t instances = 1;
};

std::optional<BatchSpec> batch_spec(const std::string& workload, bool quick) {
  if (workload == "ga100k-flat") {
    return quick ? BatchSpec{6.25, 3} : BatchSpec{125, 24};
  }
  return std::nullopt;
}

/// Instance \p j of the batch workload: the seed draws only the netlist;
/// the plan is the library default (seed included) apart from the lanes
/// and the engine.
Instance batch_instance(std::size_t j, int lanes) {
  Instance instance;
  instance.path = "ga-" + std::to_string(j) + ".hgr";
  instance.plan.algorithm1.threads = lanes;
  // Flat Algorithm I as the paper runs it: 50 starts (the default), no
  // flow post-pass (the default fm refiner adds none on the flat path).
  instance.plan.engine = ml::EngineChoice::kFlat;
  return instance;
}

void write_batch_instance(const BatchSpec& spec, std::uint64_t seed,
                          std::size_t j, const Instance& instance) {
  fhp::write_sharded_hmetis(instance.path, fhp::gate_array_params(spec.scale),
                            fhp::Rng(seed).fork(j)());
}

/// Everything a mode reports.
struct Outcome {
  Tally tally;
  MetricSet metrics;
  std::vector<double> auto_walls;  ///< partition_auto pipeline walls
};

/// Per-layer accumulation over the composed runs of trace mode.
struct LayerAccumulator {
  LayerTimes times;
  CounterTotals counters;
  double ops = 0;
  double levels = 0;
  double coarsest_vertices = 0;
  double refine_gain = 0;
  double imbalance = 0;
  double parsed_mb = 0;
  double auto_wall_s = 0;      ///< partition_auto pipelines
  double composed_wall_s = 0;  ///< composed pipelines, end to end
  /// Results whose reported metrics disagree with their sides.
  double stale_metrics = 0;
  /// Whether such a result counts as a failed operation. The serve mix
  /// clears it: partition_auto's flat-path flow/FM post-pass refreshes the
  /// metrics only when the cut improved, so a zero-gain rebalance leaves
  /// the side weights stale. That is a known library defect; the mix
  /// reports it as validate.stale_metrics instead of failing every run
  /// that meets it. Batch results are always audited strictly.
  bool stale_metrics_fail = true;

  /// Runs \p instance through partition_auto and the composed pipeline,
  /// checks both, and accumulates the composed run's layers. \p expected
  /// (when given) is another producer's answer the sides must equal.
  void run(const Instance& instance, const std::string& out, Tally& tally,
           std::vector<double>& auto_walls,
           const std::vector<std::uint8_t>* expected = nullptr) {
    PipelineRun reference = run_pipeline(instance, out);
    auto_walls.push_back(reference.wall_s);
    auto_wall_s += reference.wall_s;
    fhp::obs::reset();

    LayerTimes lt;
    const double pipeline_start = now_s();
    Hypergraph h = fhp::read_hmetis_file(instance.path);
    lt.parse_s = now_s() - pipeline_start;
    const ComposedResult composed = composed_partition(h, instance.plan, lt);
    double start = now_s();
    const bool written = write_sides(out, composed.sides);
    lt.write_s = now_s() - start;
    composed_wall_s += now_s() - pipeline_start;
    start = now_s();
    const bool legal =
        fhp::validate::audit_partition(h, composed.sides).ok();
    const bool consistent =
        fhp::validate::audit_metrics(h, composed.sides, composed.metrics).ok();
    lt.audit_s = now_s() - start;
    drain_counters(counters);

    const bool identical =
        composed.sides == reference.result.sides &&
        composed.metrics.cut_weight == reference.result.metrics.cut_weight;
    tally.record(written && reference.written && legal && identical,
                 "composed V-cycle identical to partition_auto on " +
                     instance.path);
    if (expected != nullptr) {
      tally.record(*expected == reference.result.sides,
                   "served answer identical to partition_auto on " +
                       instance.path);
    }
    if (!consistent) {
      stale_metrics += 1;
      if (stale_metrics_fail) {
        tally.record(false, "reported metrics match the sides of " +
                                instance.path);
      } else {
        std::fprintf(stderr,
                     "perfbench: known defect: partition_auto's metrics "
                     "disagree with its sides on %s\n",
                     instance.path.c_str());
      }
    }

    times += lt;
    ops += 1;
    levels += composed.levels;
    coarsest_vertices += static_cast<double>(composed.coarsest_vertices);
    refine_gain += static_cast<double>(composed.refine_gain);
    imbalance +=
        max_side_ratio(fhp::compute_metrics(fhp::Bipartition(h, composed.sides))) -
        1.0;
    parsed_mb += file_mb(instance.path);
  }

  void report(MetricSet& m) const {
    const double n = std::max(1.0, ops);
    const auto counter = [&](const char* name) {
      const auto it = counters.find(name);
      return it == counters.end() ? 0.0 : it->second;
    };
    const auto ratio = [](double num, double den) {
      return den > 0 ? num / den : 0.0;
    };
    m.set("hypergraph.parse_s", times.parse_s / n, "s");
    m.set("hypergraph.parse_mb_per_s", ratio(parsed_mb, times.parse_s), "MB/s");
    m.set("multilevel.coarsen_s", times.coarsen_s / n, "s");
    m.set("multilevel.levels", levels / n, "count");
    m.set("multilevel.coarsest_vertices", coarsest_vertices / n, "count");
    m.set("multilevel.project_s", times.project_s / n, "s");
    m.set("core.initial_s", times.initial_s / n, "s");
    // Algorithm I is the whole initial partition on either engine.
    m.set("core.alg1_s", times.initial_s / n, "s");
    m.set("core.starts_examined", counter("alg1/starts_examined") / n, "count");
    const double memo_hits = counter("algorithm1/starts_memo_hits");
    m.set("core.memo_hit_ratio",
          ratio(memo_hits, memo_hits + counter("algorithm1/starts_memo_misses")),
          "ratio");
    m.set("core.intersection_pairs", counter("intersection/pairs_emitted") / n,
          "count");
    m.set("core.intersection_builds", counter("intersection/builds") / n,
          "count");
    m.set("core.degenerate_shortcuts", counter("alg1/degenerate_shortcuts") / n,
          "count");
    m.set("graph.bfs_edges_scanned",
          (counter("bfs/edges_scanned_topdown") +
           counter("bfs/edges_scanned_bottomup")) /
              n,
          "count");
    m.set("refine.fine_s", times.refine_fine_s / n, "s");
    m.set("refine.coarse_s", times.refine_coarse_s / n, "s");
    const double moves = counter("fm/moves");
    const double rolled_back = counter("fm/moves_rolled_back");
    m.set("refine.fm_moves", moves / n, "count");
    m.set("refine.fm_rolled_back", rolled_back / n, "count");
    m.set("refine.fm_kept_ratio", ratio(moves - rolled_back, moves), "ratio");
    m.set("refine.fm_passes", counter("fm/passes") / n, "count");
    m.set("refine.gain", refine_gain / n, "weight");
    m.set("flow.refine_s", times.flow_s / n, "s");
    m.set("flow.rounds", counter("flow/rounds") / n, "count");
    m.set("flow.gadget_arcs", counter("flow/gadget_arcs") / n, "count");
    m.set("flow.adopted_ratio",
          ratio(counter("flow/adopted"), counter("flow/rounds")), "ratio");
    m.set("partition.metrics_s", times.metrics_s / n, "s");
    m.set("partition.write_s", times.write_s / n, "s");
    m.set("partition.imbalance", imbalance / n, "ratio");
    m.set("validate.audit_s", times.audit_s / n, "s");
    m.set("validate.stale_metrics", stale_metrics, "count");
    m.set("obs.traced_wall_s", auto_wall_s / n, "s");
    m.set("obs.attribution_gap_frac",
          ratio(std::abs(times.pipeline_s() - composed_wall_s), composed_wall_s),
          "ratio");
    m.set("bench.trace_ops", ops, "count");
  }
};

/// Serve-layer metrics every trace run prints; zero where the workload has
/// no serve layer.
void report_serve_layer(MetricSet& m, const MixPlan* plan,
                        const MixOutcome* mix) {
  double hit_ratio = 0, hit_p50 = 0, computed_p50 = 0, computed_p95 = 0;
  double coalesced = 0, rejected = 0, send_lag_p95 = 0, degraded = 0;
  double est_start_cost = 0, deadline_ratio_p50 = 0, deadline_met = 0;
  if (plan != nullptr && mix != nullptr) {
    std::vector<double> hits, computed, deadline_ratio;
    std::size_t met = 0;
    for (std::size_t i = 0; i < plan->requests.size(); ++i) {
      const MixKey& key = plan->keys[plan->requests[i].key];
      const fhp::serve::Response& response = mix->responses[i];
      if (!mix->answered[i] || !response.ok()) continue;
      (response.cached ? hits : computed).push_back(mix->latency_s[i] * 1e3);
      if (key.kind == MixKind::kDeadline) {
        const double deadline_s =
            static_cast<double>(key.options.deadline_us) / 1e6;
        deadline_ratio.push_back(mix->latency_s[i] / deadline_s);
        if (mix->latency_s[i] <= 2 * deadline_s) ++met;
      }
    }
    std::size_t deadline_requests = 0;
    for (const MixRequest& request : plan->requests) {
      if (plan->keys[request.key].kind == MixKind::kDeadline) ++deadline_requests;
    }
    const auto n = static_cast<double>(plan->requests.size());
    hit_ratio = static_cast<double>(hits.size()) / n;
    hit_p50 = median(hits);
    computed_p50 = median(computed);
    computed_p95 = percentile(computed, tail_quantile(computed.size()));
    send_lag_p95 = percentile(mix->send_lag_s,
                              tail_quantile(mix->send_lag_s.size())) * 1e3;
    deadline_ratio_p50 = median(deadline_ratio);
    deadline_met = deadline_requests == 0
                       ? 0.0
                       : static_cast<double>(met) /
                             static_cast<double>(deadline_requests);
    const fhp::json::Value stats = fhp::json::parse(mix->stats_json);
    const auto stat = [&](std::string_view group, std::string_view name) {
      const fhp::json::Value* v = stats.find_path({group, name});
      return v != nullptr && v->is_number() ? v->as_number() : 0.0;
    };
    coalesced = stat("requests", "coalesced");
    rejected = stat("requests", "rejected");
    degraded = stat("requests", "degraded");
    est_start_cost = stats.number_or("est_start_cost_us", 0.0) / 1e3;
  }
  m.set("serve.hit_ratio", hit_ratio, "ratio");
  m.set("serve.hit_p50_ms", hit_p50, "ms");
  m.set("serve.computed_p50_ms", computed_p50, "ms");
  m.set("serve.computed_p95_ms", computed_p95, "ms");
  m.set("serve.coalesced", coalesced, "count");
  m.set("serve.rejected", rejected, "count");
  m.set("serve.send_lag_p95_ms", send_lag_p95, "ms");
  m.set("serve.degraded", degraded, "count");
  m.set("serve.est_start_cost_ms", est_start_cost, "ms");
  m.set("serve.deadline_ratio_p50", deadline_ratio_p50, "ratio");
  m.set("serve.deadline_met_frac", deadline_met, "ratio");
}

void report_failed_frac(Outcome& outcome) {
  outcome.metrics.set(
      "bench.failed_frac",
      outcome.tally.attempted > 0
          ? static_cast<double>(outcome.tally.failed) /
                static_cast<double>(outcome.tally.attempted)
          : 0.0,
      "ratio");
}

// ---- batch workloads --------------------------------------------------------

Outcome run_batch(const Args& args, const BatchSpec& spec) {
  Outcome outcome;
  std::vector<Instance> instances;
  const std::size_t k =
      args.mode == "companion" ? std::min(args.count, spec.instances)
                               : spec.instances;
  for (std::size_t j = 0; j < k; ++j) {
    instances.push_back(batch_instance(j, args.lanes));
  }
  std::vector<double> setup;
  for (int rep = 0; rep < setup_repeats(args); ++rep) {
    const double start = now_s();
    for (std::size_t j = 0; j < k; ++j) {
      write_batch_instance(spec, args.seed, j, instances[j]);
    }
    setup.push_back(now_s() - start);
  }

  if (args.mode == "companion") {
    for (const Instance& instance : instances) {
      const PipelineRun run = run_pipeline(instance, "part.txt");
      outcome.auto_walls.push_back(run.wall_s);
      outcome.tally.record(run.written, "write " + instance.path);
    }
    return outcome;
  }

  const double start = now_s();
  if (args.mode == "trace") {
    LayerAccumulator layers;
    for (const Instance& instance : instances) {
      layers.run(instance, "part.txt", outcome.tally, outcome.auto_walls);
      if (now_s() - start >= args.seconds) break;
    }
    layers.report(outcome.metrics);
    report_serve_layer(outcome.metrics, nullptr, nullptr);
    report_failed_frac(outcome);
    return outcome;
  }

  // measure: rounds over the instance set until the time is up (at least
  // one full round). Every instance's first answer is audited; later
  // rounds must replay it bit-identically.
  std::vector<std::vector<double>> walls(k);
  std::vector<std::vector<std::uint8_t>> answers(k);
  std::vector<double> cuts(k), ratios(k);
  for (std::size_t op = 0;; ++op) {
    const std::size_t j = op % k;
    PipelineRun run = run_pipeline(instances[j], "part.txt");
    walls[j].push_back(run.wall_s);
    bool ok = run.written;
    if (op < k) {
      ok = ok && audit_ok(run.h, run.result.sides, run.result.metrics);
      answers[j] = std::move(run.result.sides);
      cuts[j] = static_cast<double>(run.result.metrics.cut_weight);
      ratios[j] = max_side_ratio(run.result.metrics);
    } else {
      ok = ok && run.result.sides == answers[j];
    }
    outcome.tally.record(ok, "audit/replay of " + instances[j].path);
    if (op + 1 >= k && now_s() - start >= args.seconds) break;
  }
  // Every time metric is a per-instance statistic averaged over the
  // instance set, so each instance weighs the same however often the time
  // allowed a repeat of it.
  std::vector<double> typical, slowest;
  for (const std::vector<double>& w : walls) {
    typical.push_back(median(w));
    slowest.push_back(*std::max_element(w.begin(), w.end()));
  }
  MetricSet& m = outcome.metrics;
  m.set("wall_s", mean(typical), "s");
  m.set("cut", mean(cuts), "weight");
  m.set("max_side_ratio", mean(ratios), "ratio");
  m.set("peak_rss_mb", peak_rss_mib(), "MiB");
  m.set("setup_s", median(setup), "s");
  m.set("latency_p50_ms", mean(typical) * 1e3, "ms");
  m.set("latency_p95_ms", mean(slowest) * 1e3, "ms");
  return outcome;
}

// ---- serve mix ---------------------------------------------------------------

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return std::move(text).str();
}

Outcome run_serve(const Args& args) {
  Outcome outcome;
  const MixPlan plan = make_mix(args.seed, args.seconds, args.quick);
  const std::vector<std::size_t>& full = plan.full_quality_keys;

  if (args.mode == "companion") {
    for (std::size_t i = 0; i < std::min(args.count, full.size()); ++i) {
      const MixKey& key = plan.keys[full[i]];
      write_mix_instance(key);
      const PipelineRun run =
          run_pipeline({key.path, full_quality_plan(key, args.lanes)}, "part.txt");
      outcome.auto_walls.push_back(run.wall_s);
      outcome.tally.record(run.written, "write " + key.path);
    }
    return outcome;
  }

  std::vector<double> generate;
  for (int rep = 0; rep < setup_repeats(args); ++rep) {
    const double start = now_s();
    for (const MixKey& key : plan.keys) write_mix_instance(key);
    generate.push_back(now_s() - start);
  }
  std::vector<std::string> texts;
  for (const MixKey& key : plan.keys) texts.push_back(read_text(key.path));

  std::vector<double> spawn;
  std::unique_ptr<Daemon> daemon;
  std::string socket;
  for (int rep = 0; rep < setup_repeats(args); ++rep) {
    if (daemon) daemon->stop();
    socket = "d" + std::to_string(rep) + ".sock";
    daemon = std::make_unique<Daemon>(args.serve_bin, socket, args.lanes);
    spawn.push_back(daemon->ready_s());
  }
  const MixOutcome mix = run_mix(*daemon, socket, plan, texts);
  daemon->stop();

  // The answer every full-quality key must have: partition_auto replays.
  // Trace mode first runs the leading keys serially through both
  // partition_auto and the composed V-cycle, for a third of the run length.
  std::vector<std::vector<std::uint8_t>> replay(plan.keys.size());
  std::vector<fhp::PartitionMetrics> replay_metrics(plan.keys.size());
  std::vector<const std::vector<std::uint8_t>*> served(plan.keys.size(), nullptr);
  for (std::size_t i = 0; i < plan.requests.size(); ++i) {
    const std::size_t key = plan.requests[i].key;
    if (served[key] == nullptr && mix.answered[i] && mix.responses[i].ok()) {
      served[key] = &mix.responses[i].sides;
    }
  }
  LayerAccumulator layers;
  layers.stale_metrics_fail = false;
  std::size_t covered = 0;
  if (args.mode == "trace") {
    const double start = now_s();
    for (; covered < full.size(); ++covered) {
      if (covered > 0 && now_s() - start >= args.seconds / 3) break;
      const MixKey& key = plan.keys[full[covered]];
      layers.run({key.path, full_quality_plan(key, args.lanes)}, "part.txt",
                 outcome.tally, outcome.auto_walls, served[full[covered]]);
    }
  }
  fhp::ThreadPool pool(args.lanes);
  pool.parallel_for(full.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const MixKey& key = plan.keys[full[i]];
      const Hypergraph h = fhp::read_hmetis_file(key.path);
      ml::EngineResult result = ml::partition_auto(h, full_quality_plan(key, 1));
      // Scored from the sides, not taken from result.metrics (see
      // LayerAccumulator::stale_metrics_fail).
      replay_metrics[full[i]] =
          fhp::compute_metrics(fhp::Bipartition(h, result.sides));
      replay[full[i]] = std::move(result.sides);
    }
  });

  std::vector<double> large_latency;
  for (std::size_t i = 0; i < plan.requests.size(); ++i) {
    const MixKey& key = plan.keys[plan.requests[i].key];
    const fhp::serve::Response& response = mix.responses[i];
    bool ok = mix.answered[i] && response.ok() &&
              response.id == static_cast<std::int64_t>(i);
    if (ok && key.kind == MixKind::kDeadline) {
      const Hypergraph h = fhp::read_hmetis_file(key.path);
      ok = fhp::validate::audit_partition(h, response.sides).ok() &&
           fhp::compute_metrics(fhp::Bipartition(h, response.sides)).cut_weight ==
               response.cut_weight;
    } else if (ok) {
      ok = response.sides == replay[plan.requests[i].key] &&
           response.cut_weight == replay_metrics[plan.requests[i].key].cut_weight;
    }
    outcome.tally.record(ok, "request " + std::to_string(i) + " (" + key.path + ")");
    if (key.kind == MixKind::kLarge) large_latency.push_back(mix.latency_s[i]);
  }

  for (const MixKind kind :
       {MixKind::kHot, MixKind::kSmall, MixKind::kLarge, MixKind::kDeadline}) {
    std::vector<double> client, daemon_side;
    for (std::size_t i = 0; i < plan.requests.size(); ++i) {
      if (plan.keys[plan.requests[i].key].kind != kind) continue;
      client.push_back(mix.latency_s[i] * 1e3);
      daemon_side.push_back(static_cast<double>(mix.responses[i].latency_us) / 1e3);
    }
    std::fprintf(stderr,
                 "perfbench: %-8s %3zu requests, latency p50 %.1f ms "
                 "(daemon-side %.1f ms)\n",
                 mix_kind_name(kind), client.size(), median(client),
                 median(daemon_side));
  }

  MetricSet& m = outcome.metrics;
  if (args.mode == "trace") {
    layers.report(m);
    report_serve_layer(m, &plan, &mix);
    report_failed_frac(outcome);
    return outcome;
  }
  double cut = 0;
  std::vector<double> ratios;
  for (const std::size_t key : full) {
    cut += static_cast<double>(replay_metrics[key].cut_weight);
    ratios.push_back(max_side_ratio(replay_metrics[key]));
  }
  m.set("wall_s", mean(large_latency), "s");
  m.set("cut", cut, "weight");
  m.set("max_side_ratio", mean(ratios), "ratio");
  m.set("peak_rss_mb", mix.daemon_peak_rss_mb, "MiB");
  m.set("setup_s", median(generate) + median(spawn), "s");
  m.set("latency_p50_ms", median(mix.latency_s) * 1e3, "ms");
  m.set("latency_p95_ms",
        percentile(mix.latency_s, tail_quantile(mix.latency_s.size())) * 1e3,
        "ms");
  return outcome;
}

// ---- self test ---------------------------------------------------------------

/// Composed V-cycle identity on small instances of every engine/refiner
/// path the workloads use.
Outcome run_selftest(const Args& args) {
  Outcome outcome;
  LayerAccumulator layers;
  std::size_t j = 0;
  for (const bool weighted : {false, true}) {
    for (const VertexId modules : {VertexId{900}, VertexId{3000}}) {
      for (const ml::RefinerChoice refiner :
           {ml::RefinerChoice::kFm, ml::RefinerChoice::kFlow,
            ml::RefinerChoice::kFlowFm}) {
        const double scale = static_cast<double>(modules) / 600.0;
        const fhp::CircuitParams params = weighted
                                              ? fhp::standard_cell_params(scale)
                                              : fhp::gate_array_params(scale * 0.75);
        Instance instance;
        instance.path = "self-" + std::to_string(j) + ".hgr";
        instance.plan.refiner = refiner;
        instance.plan.algorithm1.seed = args.seed + j;
        instance.plan.algorithm1.threads = args.lanes;
        fhp::write_hmetis_file(instance.path,
                               fhp::generate_circuit(params, args.seed + j));
        layers.run(instance, "part.txt", outcome.tally, outcome.auto_walls);
        ++j;
      }
    }
  }
  return outcome;
}

// ---------------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: fhp_perfbench --workload W --seed N --seconds S "
               "--mode measure|trace|companion|selftest --lanes L "
               "[--serve-bin PATH] [--count K] [--quick]\n");
  return 2;
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      args.quick = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--mode") {
      args.mode = value;
    } else if (arg == "--lanes") {
      args.lanes = std::max(1, std::atoi(value.c_str()));
    } else if (arg == "--serve-bin") {
      args.serve_bin = value;
    } else if (arg == "--count") {
      args.count = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      return std::nullopt;
    }
  }
  const bool mode_ok = args.mode == "measure" || args.mode == "trace" ||
                       args.mode == "companion" || args.mode == "selftest";
  if (!mode_ok) return std::nullopt;
  return args;
}

void print_outcome(const Outcome& outcome) {
  fhp::json::Writer w;
  w.begin_object();
  w.member("correct", outcome.tally.failed == 0);
  w.member("attempted", outcome.tally.attempted);
  w.member("failed", outcome.tally.failed);
  w.member_raw("metrics", outcome.metrics.to_json());
  w.key("auto_walls").begin_array();
  for (const double wall : outcome.auto_walls) w.value(wall);
  w.end_array();
  w.end_object();
  std::printf("%s\n", std::move(w).take().c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) return usage();
  try {
    Outcome outcome;
    if (args->mode == "selftest") {
      outcome = run_selftest(*args);
    } else if (const auto spec = batch_spec(args->workload, args->quick)) {
      outcome = run_batch(*args, *spec);
    } else if (args->workload == "sc-serve-mix") {
      if (args->serve_bin.empty()) return usage();
      outcome = run_serve(*args);
    } else {
      return usage();
    }
    print_outcome(outcome);
    return outcome.tally.failed == 0 && outcome.tally.attempted > 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fhp_perfbench: %s\n", error.what());
    return 1;
  }
}

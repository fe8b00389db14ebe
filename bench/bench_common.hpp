/// \file bench_common.hpp
/// Shared plumbing for the experiment harness: canonical instance
/// definitions matching the paper's test suite, baseline invocation
/// wrappers, report formatting, and the machine-readable run-report
/// recorder (BENCH_<name>.json artifacts; see docs/observability.md).
#pragma once

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baselines/fm.hpp"
#include "baselines/kl.hpp"
#include "baselines/random_cut.hpp"
#include "baselines/sa.hpp"
#include "core/algorithm1.hpp"
#include "gen/circuit.hpp"
#include "gen/planted.hpp"
#include "hypergraph/hypergraph.hpp"
#include "obs/report.hpp"
#include "util/json.hpp"
#include "util/memory.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace fhp::bench {

/// A temp-root path no concurrent run can share: \p stem plus this
/// process's pid and a per-process counter, so two bench processes (or
/// two legs of one) never write, bind or delete each other's files.
inline std::filesystem::path unique_temp_path(const std::string& stem) {
  static std::atomic<int> counter{0};
  std::string name = stem;
  name += '_';
  name += std::to_string(::getpid());
  name += '_';
  name += std::to_string(counter.fetch_add(1));
  return std::filesystem::temp_directory_path() / name;
}

/// One instance of the paper's Table 2 test suite. Bd2's size is not
/// legible in the available text; a value between Bd1 and Bd3 is used and
/// documented in EXPERIMENTS.md.
struct Table2Instance {
  std::string name;
  VertexId modules;
  EdgeId signals;
  Technology technology;
  bool difficult;      ///< planted "Diff" instance
  EdgeId planted_cut;  ///< only for difficult instances
};

/// The paper's Table 2 rows.
inline std::vector<Table2Instance> table2_instances() {
  return {
      {"Bd1", 103, 211, Technology::kPcb, false, 0},
      {"Bd2", 170, 350, Technology::kPcb, false, 0},
      {"Bd3", 242, 502, Technology::kPcb, false, 0},
      {"IC1", 561, 800, Technology::kStandardCell, false, 0},
      {"IC2", 2471, 3496, Technology::kStandardCell, false, 0},
      {"Diff1", 500, 700, Technology::kStandardCell, true, 4},
      {"Diff2", 500, 700, Technology::kStandardCell, true, 8},
      {"Diff3", 500, 700, Technology::kStandardCell, true, 2},
  };
}

/// Materializes a Table 2 instance deterministically.
inline Hypergraph make_instance(const Table2Instance& inst,
                                std::uint64_t seed) {
  if (inst.difficult) {
    // Sparse planted-bisection graphs (2-pin nets, ~3-regular) — the Bui
    // et al. family the paper invokes: c = o(n^{1-1/d}) with d = 3. This
    // is the regime where iterative-improvement heuristics demonstrably
    // stick in poor local minima.
    PlantedParams params;
    params.num_vertices = inst.modules;
    params.num_edges = inst.signals;
    params.planted_cut = inst.planted_cut;
    params.min_edge_size = 2;
    params.max_edge_size = 2;
    params.max_degree = 0;
    return planted_instance(params, seed).hypergraph;
  }
  return generate_circuit(
      table2_params(inst.modules, inst.signals, inst.technology), seed);
}

/// Timed run of Algorithm I with the paper's configuration.
struct TimedRun {
  EdgeId cut = 0;
  double seconds = 0.0;
  PartitionMetrics metrics;
  std::vector<std::uint8_t> sides;
};

/// Per-label sample series collected by measure(); the raw material of the
/// BENCH_<name>.json artifact.
class BenchRecorder {
 public:
  struct Series {
    std::vector<double> seconds;
    std::vector<double> cuts;
  };

  static BenchRecorder& instance() {
    static BenchRecorder recorder;
    return recorder;
  }

  /// Thread-safe: trials running on pool workers may record concurrently
  /// (they take the recorder mutex only for the push, not the timed work).
  void add(const std::string& label, double seconds, double cut) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = series_.try_emplace(label);
    if (inserted) order_.push_back(label);
    it->second.seconds.push_back(seconds);
    it->second.cuts.push_back(cut);
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    series_.clear();
    order_.clear();
  }

  [[nodiscard]] bool empty() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return order_.empty();
  }

  /// Serializes every series as {"label": {"runs", "seconds": {stats},
  /// "cut": {stats}}, ...} in first-recorded order. Stats carry the
  /// distribution (p50/p90/p99), not just the range, so the ledger and
  /// benchdiff can reason about tails.
  [[nodiscard]] std::string to_json() const {
    std::lock_guard<std::mutex> lock(mutex_);
    json::Writer w;
    const auto stats_object = [&w](const std::vector<double>& xs) {
      w.begin_object();
      w.member("mean", mean(xs));
      w.member("median", quantile(xs, 0.5));
      w.member("min", quantile(xs, 0.0));
      w.member("max", quantile(xs, 1.0));
      w.member("p90", quantile(xs, 0.9));
      w.member("p99", quantile(xs, 0.99));
      w.end_object();
    };
    w.begin_object();
    for (const std::string& label : order_) {
      const Series& series = series_.at(label);
      w.key(label).begin_object();
      w.member("runs", series.seconds.size());
      w.key("seconds");
      stats_object(series.seconds);
      w.key("cut");
      stats_object(series.cuts);
      w.end_object();
    }
    w.end_object();
    return std::move(w).take();
  }

 private:
  BenchRecorder() = default;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Series> series_;
  std::vector<std::string> order_;  ///< stable first-recorded label order
};

/// Times one partitioner invocation and records the sample under \p label.
/// \p run must return an Algorithm1Result or BaselineResult (anything with
/// `metrics` and `sides`).
///
/// \p warmup un-timed invocations run first (cache/allocator/branch-
/// predictor warm-up — and for workspace-backed paths, the one-time buffer
/// growths); then \p timed_reps timed invocations run and the *minimum*
/// wall time is recorded as the sample. Min-of-k is the standard estimator
/// for deterministic kernels: every source of error (scheduler preemption,
/// frequency ramps, interrupts) only ever adds time, so the minimum is the
/// least-noisy observation. Defaults preserve the historical
/// single-shot-no-warmup behavior for existing call sites.
template <typename RunFn>
TimedRun measure(const char* label, RunFn&& run, int warmup = 0,
                 int timed_reps = 1) {
  for (int i = 0; i < warmup; ++i) static_cast<void>(run());
  TimedRun out;
  double best = 0.0;
  for (int rep = 0; rep < timed_reps; ++rep) {
    Timer timer;
    auto r = run();
    const double seconds = timer.seconds();
    if (rep == 0 || seconds < best) {
      best = seconds;
      out.cut = r.metrics.cut_edges;
      out.metrics = r.metrics;
      out.sides = std::move(r.sides);
    }
  }
  out.seconds = best;
  BenchRecorder::instance().add(label, out.seconds,
                                static_cast<double>(out.cut));
  return out;
}

/// Runs \p trials independent invocations of \p run (callable taking the
/// trial index, returning anything with `metrics` and `sides`) across the
/// lanes of \p pool (null or 1-lane = serial), then records every trial
/// under \p label *in trial order*, so the artifact series is deterministic
/// no matter how the trials were scheduled. Trials must be independent —
/// e.g. repetitions over distinct seeds. Note that under contention each
/// per-trial wall time reflects CPU sharing with the other lanes; use the
/// serial path when per-trial latency itself is the measurement.
///
/// \p warmup extra invocations of run(0) execute un-timed and un-recorded
/// before the trials (serial, even when a pool is given), absorbing
/// first-touch effects so trial 0 is not systematically the slowest.
template <typename RunFn>
std::vector<TimedRun> measure_trials(const char* label, int trials,
                                     ThreadPool* pool, RunFn&& run,
                                     int warmup = 0) {
  for (int i = 0; i < warmup; ++i) static_cast<void>(run(0));
  auto one = [&run](std::size_t i) {
    Timer timer;
    auto r = run(i);
    TimedRun out;
    out.seconds = timer.seconds();
    out.cut = r.metrics.cut_edges;
    out.metrics = r.metrics;
    out.sides = std::move(r.sides);
    return out;
  };
  std::vector<TimedRun> runs;
  const auto n = static_cast<std::size_t>(trials);
  if (pool != nullptr && pool->thread_count() > 1 && trials > 1) {
    // Same `pool/` gauges the serving layer publishes (docs/serving.md),
    // so run reports state which pool shape produced the trials.
    FHP_GAUGE_SET("pool/lanes", pool->lane_count());
    runs = pool->parallel_map<TimedRun>(n, one);
    FHP_GAUGE_SET("pool/pending_chunks",
                  static_cast<double>(pool->pending_chunks()));
  } else {
    runs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) runs.push_back(one(i));
  }
  for (const TimedRun& r : runs) {
    BenchRecorder::instance().add(label, r.seconds,
                                  static_cast<double>(r.cut));
  }
  return runs;
}

inline TimedRun run_algorithm1(const Hypergraph& h, std::uint64_t seed,
                               int starts = 50) {
  return measure("alg1", [&] {
    Algorithm1Options options;
    options.seed = seed;
    options.num_starts = starts;
    return algorithm1(h, options);
  });
}

inline TimedRun run_sa(const Hypergraph& h, std::uint64_t seed) {
  return measure("sa", [&] {
    SaOptions options;
    options.seed = seed;
    return simulated_annealing(h, options);
  });
}

inline TimedRun run_kl(const Hypergraph& h, std::uint64_t seed) {
  return measure("kl", [&] {
    KlOptions options;
    options.seed = seed;
    return kernighan_lin(h, options);
  });
}

inline TimedRun run_fm(const Hypergraph& h, std::uint64_t seed) {
  return measure("fm", [&] {
    FmOptions options;
    options.seed = seed;
    return fiduccia_mattheyses(h, options);
  });
}

/// Prints a titled section header.
inline void print_header(const std::string& title) {
  std::printf("\n==== %s ====\n\n", title.c_str());
}

// Build attribution stamped by CMake (see the top-level CMakeLists.txt);
// fallbacks keep out-of-band compiles (IDE single-file checks) building.
#ifndef FHP_GIT_SHA
#define FHP_GIT_SHA "unknown"
#endif
#ifndef FHP_BUILD_TYPE
#define FHP_BUILD_TYPE "unknown"
#endif

/// Build/environment fingerprint embedded in every run report, so that two
/// BENCH_*.json files are only ever compared apples-to-apples. Besides the
/// compiler/build flags it stamps the producing commit (so ledger records
/// are attributable) and the hardware the run saw: the machine's thread
/// capacity and what resolve_threads() turns a default request into —
/// scan-rate numbers from a 4-thread laptop and a 64-thread server are
/// not comparable, and the artifact must say which one it was.
inline std::string env_fingerprint_json() {
  json::Writer w;
  w.begin_object();
  w.member("git_sha", FHP_GIT_SHA);
  w.member("build_type", FHP_BUILD_TYPE);
  w.member("compiler", __VERSION__);
  w.member("cxx_standard", static_cast<long long>(__cplusplus));
#ifdef NDEBUG
  w.member("assertions", false);
#else
  w.member("assertions", true);
#endif
  w.member("tracing_compiled", FHP_TRACING_ENABLED != 0);
  w.member("pointer_bits", sizeof(void*) * 8);
  w.member("index_bits", sizeof(Index) * 8);
  w.member("hardware_threads", std::thread::hardware_concurrency());
  w.member("resolved_default_threads", resolve_threads(0));
  w.end_object();
  return std::move(w).take();
}

/// RAII run-report scope for a bench executable. Construct first thing in
/// main(); on destruction it prints the phase tree (tracing builds only)
/// and writes BENCH_<name>.json — per-label timing/cut stats from every
/// measure() call plus the phase tree, counters, histograms, peak RSS and
/// the env fingerprint — into $FHP_BENCH_JSON_DIR (default: the working
/// directory).
///
/// The same record is additionally APPENDED as one line to the run ledger
/// `$FHP_BENCH_LEDGER_DIR/<name>.jsonl` (default: `<json dir>/ledger/`),
/// so repeated runs accumulate a queryable perf trajectory — commit SHA,
/// build type, wall times, counters and RSS per run — instead of each run
/// overwriting the last snapshot. Set FHP_BENCH_LEDGER_DIR=none to skip
/// the ledger (e.g. throwaway experiments).
class BenchSession {
 public:
  explicit BenchSession(std::string name) : name_(std::move(name)) {
    obs::reset();
    BenchRecorder::instance().clear();
  }

  BenchSession(const BenchSession&) = delete;
  BenchSession& operator=(const BenchSession&) = delete;

  ~BenchSession() { finish(); }

  /// Idempotent; called automatically on destruction.
  void finish() {
    if (finished_) return;
    finished_ = true;
    const obs::TraceReport report = obs::snapshot();
    if (report.tracing_compiled && !report.spans.empty()) {
      std::printf("\n%s", obs::to_tree_string(report).c_str());
    }

    json::Writer w;
    w.begin_object();
    w.member("bench", name_);
    w.member("generated_unix",
             static_cast<long long>(std::time(nullptr)));
    w.member_raw("env", env_fingerprint_json());
    // Top-level copy of the RSS sample (it also sits in the trace gauges)
    // so ledger queries and benchdiff reach it without digging.
    w.member("peak_rss_bytes", peak_rss_bytes());
    w.member_raw("series", BenchRecorder::instance().to_json());
    w.member_raw("trace", obs::to_json(report));
    w.end_object();
    const std::string json = std::move(w).take() + "\n";

    const char* dir = std::getenv("FHP_BENCH_JSON_DIR");
    const std::string json_dir =
        std::string(dir != nullptr && *dir != '\0' ? dir : ".");
    const std::string path = json_dir + "/BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write run report %s\n",
                   path.c_str());
    } else {
      out << json;
      std::printf("run report written to %s\n", path.c_str());
    }
    append_ledger_record(json_dir, json);
  }

 private:
  /// Appends \p record (one line, trailing newline included) to the run
  /// ledger. Failures warn and continue: the ledger is telemetry, and a
  /// read-only artifact directory must not fail the bench itself.
  void append_ledger_record(const std::string& json_dir,
                            const std::string& record) const {
    const char* env = std::getenv("FHP_BENCH_LEDGER_DIR");
    std::string ledger_dir =
        env != nullptr && *env != '\0' ? env : json_dir + "/ledger";
    if (ledger_dir == "none") return;
    std::error_code ec;
    std::filesystem::create_directories(ledger_dir, ec);
    const std::string path = ledger_dir + "/" + name_ + ".jsonl";
    std::ofstream ledger(path, std::ios::app);
    if (!ledger) {
      std::fprintf(stderr, "warning: cannot append ledger record %s\n",
                   path.c_str());
      return;
    }
    ledger << record;
    std::printf("ledger record appended to %s\n", path.c_str());
  }

  std::string name_;
  bool finished_ = false;
};

}  // namespace fhp::bench

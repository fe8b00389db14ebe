/// \file bench.hpp
/// Shared pieces of the repository benchmark runner (see ../README.md):
/// metric bookkeeping, small statistics, the composed V-cycle that times
/// each layer, and the serve-mix load generator.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hypergraph/hypergraph.hpp"
#include "multilevel/engine.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

using fhp::Hypergraph;
using fhp::VertexId;
using fhp::Weight;

// ---------------------------------------------------------------------------
// Metrics, tallies and statistics
// ---------------------------------------------------------------------------

/// Named metric values with units, kept in insertion order.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// The metrics as one JSON object {name: {"value": v, "unit": u}}.
  [[nodiscard]] std::string to_json() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Operations attempted and failed. Every failure is reported on stderr
/// with what failed.
struct Tally {
  long long attempted = 0;
  long long failed = 0;
  void record(bool ok, const std::string& what);
};

/// Seconds on the steady clock.
[[nodiscard]] double now_s();
[[nodiscard]] double mean(const std::vector<double>& xs);
[[nodiscard]] double median(std::vector<double> xs);
/// Nearest-rank percentile, \p q in (0, 1].
[[nodiscard]] double percentile(std::vector<double> xs, double q);
/// The percentile the latency metrics report for \p n samples: p95 when
/// at least 200 samples, otherwise the highest percentile that still has
/// ten samples beyond it, and never below the median.
[[nodiscard]] double tail_quantile(std::size_t n);

/// Largest side weight over the balanced target ceil(c(V)/2): 1 + the
/// achieved imbalance epsilon (Schlag et al.'s L_max definition).
[[nodiscard]] double max_side_ratio(const fhp::PartitionMetrics& metrics);

// ---------------------------------------------------------------------------
// Composed pipeline with per-layer timing
// ---------------------------------------------------------------------------

/// Seconds spent per layer in one or more composed pipeline runs.
struct LayerTimes {
  double parse_s = 0;
  double coarsen_s = 0;     ///< thread pool + build_hierarchy
  double initial_s = 0;     ///< initial partition: the one algorithm1()
                            ///< call, at the coarsest level or flat
  double project_s = 0;     ///< Hierarchy::project per level
  double refine_coarse_s = 0;  ///< refiner calls above the finest level
  double refine_fine_s = 0;    ///< refiner calls on the input hypergraph
  double flow_s = 0;        ///< the corridor-flow share of all refiner calls
  double metrics_s = 0;     ///< scoring the final partition
  double write_s = 0;
  double audit_s = 0;

  /// Sum of the disjoint layers of parse -> partition -> write (audit is
  /// a check, not part of the pipeline; flow is inside refine).
  [[nodiscard]] double pipeline_s() const;
  LayerTimes& operator+=(const LayerTimes& other);
};

/// A partition produced by the composed pipeline.
struct ComposedResult {
  std::vector<std::uint8_t> sides;
  fhp::PartitionMetrics metrics;
  int levels = 0;
  VertexId coarsest_vertices = 0;
  Weight refine_gain = 0;
};

/// Rebuilds ml::partition_auto(h, plan) from the public layer entry
/// points (routing, build_hierarchy, algorithm1 on coarsest(), projection
/// and seeded per-level refiners from make_refiner) and adds each layer's
/// time to \p times. The partition is meant to be bit-identical to
/// partition_auto's; callers check that.
[[nodiscard]] ComposedResult composed_partition(const Hypergraph& h,
                                                const fhp::ml::PartitionPlan& plan,
                                                LayerTimes& times);

/// Work counters the library exports through the obs registry (tracing-ON
/// builds only), summed over the runs they were taken after.
using CounterTotals = std::map<std::string, double>;
/// Adds the registry's counters to \p totals and resets the registry.
void drain_counters(CounterTotals& totals);

// ---------------------------------------------------------------------------
// Serve mix
// ---------------------------------------------------------------------------

/// Request classes of the sc-serve-mix workload.
enum class MixKind { kHot, kSmall, kLarge, kDeadline };
[[nodiscard]] const char* mix_kind_name(MixKind kind);

/// One distinct instance + options the mix sends.
struct MixKey {
  MixKind kind = MixKind::kHot;
  std::uint64_t instance_seed = 0;
  VertexId modules = 0;
  fhp::serve::RequestOptions options;
  std::string path;  ///< .hgr file in the run directory
};

/// One request of the open-loop schedule.
struct MixRequest {
  std::size_t key = 0;
  double due_s = 0;  ///< offset from the schedule start
};

struct MixPlan {
  std::vector<MixKey> keys;
  std::vector<MixRequest> requests;
  /// Full-quality keys (no deadline) in order of first request.
  std::vector<std::size_t> full_quality_keys;
  /// Keys sent once, untimed, before the schedule starts.
  std::vector<std::size_t> warmup;
};

/// The deterministic schedule of one run: \p seed draws every instance and
/// option; \p seconds fixes the request count at a fixed rate.
[[nodiscard]] MixPlan make_mix(std::uint64_t seed, double seconds, bool quick);
/// Generates key \p k's instance and writes it to its path.
void write_mix_instance(const MixKey& key);
/// The plan partition_auto runs for a full-quality key.
[[nodiscard]] fhp::ml::PartitionPlan full_quality_plan(const MixKey& key,
                                                       int threads);

/// What one open-loop pass against the daemon observed.
struct MixOutcome {
  std::vector<fhp::serve::Response> responses;  ///< by request index
  std::vector<bool> answered;                   ///< a response arrived
  std::vector<double> latency_s;  ///< receive - due; +inf when not ok
  std::vector<double> send_lag_s;  ///< send start - due
  std::string stats_json;          ///< daemon stats after the pass
  double daemon_peak_rss_mb = 0;
};

/// A running fhp_serve process, stopped and reaped on destruction.
class Daemon {
 public:
  /// Spawns \p binary with \p lanes pool lanes on \p socket and waits for
  /// the first successful ping. Throws on failure.
  Daemon(const std::string& binary, const std::string& socket, int lanes);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Seconds from spawn to the first successful ping.
  [[nodiscard]] double ready_s() const noexcept { return ready_s_; }
  /// Peak resident set of the daemon so far (VmHWM), in MiB.
  [[nodiscard]] double peak_rss_mb() const;
  /// Asks the daemon to exit and reaps it. Idempotent.
  void stop();

 private:
  std::string socket_;
  int pid_ = -1;
  double ready_s_ = 0;
};

/// Sends \p plan open-loop over two pipelined connections and collects
/// every response, then reads the daemon's stats.
[[nodiscard]] MixOutcome run_mix(const Daemon& daemon, const std::string& socket,
                                 const MixPlan& plan,
                                 const std::vector<std::string>& texts);

}  // namespace perfbench

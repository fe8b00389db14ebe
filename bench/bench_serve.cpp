/// \file bench_serve.cpp
/// Load generator and gate for the partition daemon (docs/serving.md).
/// Starts an in-process Server on a real unix socket and drives it
/// through the client library in three phases:
///
///   1. cold vs cached (serial): distinct std-cell instances requested
///      cold, then re-requested hot. GATE: cached p50 latency at least
///      10x below cold p50 — the result cache must make repeat requests
///      qualitatively cheaper than recomputation.
///   2. open-loop hot/cold mix: two pipelined client connections replay
///      100 requests, 75% over 4 hot instances / 25% over 16 cold ones.
///      Single-flight coalescing makes the cache totals exact: misses ==
///      20 unique keys, hits == 80. GATE: hit rate >= 50%; and an audit
///      replays every unique key through partition_auto directly — each
///      daemon response must be bit-identical (sides, cut) to the direct
///      call, with reported metrics re-verified from the sides.
///   3. deadline (serial): a 2471-module instance with a latency budget
///      and a pinned per-start cost, making the truncated start budget a
///      pure function of the request. GATE: response within 2x the
///      deadline, degraded flag set, never cached, and bit-identical to
///      a direct run at the truncated budget.
///
/// The run report (BENCH_serve.json) carries the latency series and the
/// cache/ counters; benchdiff gates cache/{hits,misses} exactly while
/// serve/ and pool/ operational counters stay advisory.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <thread>

#include "bench_common.hpp"
#include "hypergraph/io.hpp"
#include "multilevel/engine.hpp"
#include "serve/client.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "util/timer.hpp"
#include "validate/audit.hpp"

using namespace fhp;
using namespace fhp::bench;

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

/// A generated instance plus its wire form.
struct Instance {
  Hypergraph hypergraph;
  std::string text;
};

Instance make_std_cell(VertexId modules, EdgeId nets, std::uint64_t seed) {
  Instance inst;
  inst.hypergraph = generate_circuit(
      table2_params(modules, nets, Technology::kStandardCell), seed);
  std::ostringstream out;
  write_hmetis(out, inst.hypergraph);
  inst.text = std::move(out).str();
  return inst;
}

double median_of(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

/// Replays \p options through the engine directly and checks the daemon's
/// response is bit-identical (the cache/scheduler must never change an
/// answer) and that its reported metrics match the sides.
void audit_response(const Hypergraph& h, const serve::RequestOptions& options,
                    const serve::Response& response,
                    const serve::BudgetDecision& budget) {
  const ml::PartitionPlan plan = serve::make_plan(options, budget);
  const ml::EngineResult direct = ml::partition_auto(h, plan);
  expect(direct.sides == response.sides,
         "daemon sides differ from direct partition_auto");
  expect(direct.metrics.cut_weight == response.cut_weight &&
             direct.metrics.cut_edges == response.cut_edges,
         "daemon cut differs from direct partition_auto");
  const validate::AuditReport report =
      validate::audit_metrics(h, response.sides, direct.metrics);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.to_string().c_str());
    ++g_failures;
  }
}

}  // namespace

int main() {
  BenchSession session("serve");

  const std::string socket_path =
      unique_temp_path("fhp_bench_serve").string() + ".sock";
  serve::ServerOptions server_options;
  server_options.socket_path = socket_path;
  server_options.scheduler.threads = 2;
  // Every request of the open-loop phase may be outstanding at once; the
  // admission bound must not trigger here (rejection timing would be
  // nondeterministic — the rejection path is gated in tests/test_serve).
  server_options.scheduler.max_queue = 256;
  serve::Server server(server_options);
  server.start();

  // ---- Phase 1: cold vs cached -----------------------------------------
  print_header("phase 1: cold vs cached latency (serial)");
  std::vector<Instance> cold_set;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    cold_set.push_back(make_std_cell(561, 800, seed));
  }
  serve::Client client;
  client.connect(socket_path);
  std::vector<double> cold_seconds;
  std::vector<double> cached_seconds;
  for (const Instance& inst : cold_set) {
    serve::RequestOptions options;
    options.seed = 1;
    Timer cold_timer;
    const serve::Response cold = client.partition(inst.text, options);
    const double cold_s = cold_timer.seconds();
    expect(cold.ok() && !cold.cached, "cold request must miss the cache");
    BenchRecorder::instance().add("serve_cold", cold_s,
                                  static_cast<double>(cold.cut_edges));
    cold_seconds.push_back(cold_s);
    for (int rep = 0; rep < 3; ++rep) {
      Timer hot_timer;
      const serve::Response hot = client.partition(inst.text, options);
      const double hot_s = hot_timer.seconds();
      expect(hot.ok() && hot.cached, "repeat request must hit the cache");
      expect(hot.cut_weight == cold.cut_weight &&
                 hot.sides == cold.sides,
             "cached response must equal the cold response");
      BenchRecorder::instance().add("serve_cached", hot_s,
                                    static_cast<double>(hot.cut_edges));
      cached_seconds.push_back(hot_s);
    }
  }
  const double cold_p50 = median_of(cold_seconds);
  const double cached_p50 = median_of(cached_seconds);
  std::printf("  cold p50 %.3f ms, cached p50 %.3f ms (%.1fx)\n",
              cold_p50 * 1e3, cached_p50 * 1e3, cold_p50 / cached_p50);
  FHP_GAUGE_SET("serve/cold_p50_us", cold_p50 * 1e6);
  FHP_GAUGE_SET("serve/cached_p50_us", cached_p50 * 1e6);
  expect(cached_p50 * 10.0 <= cold_p50,
         "cached p50 must be >= 10x below cold p50");

  // ---- Phase 2: open-loop hot/cold mix ---------------------------------
  print_header("phase 2: open-loop mix, 2 pipelined clients, 100 requests");
  std::vector<Instance> hot_instances;
  for (std::uint64_t seed = 101; seed <= 104; ++seed) {
    hot_instances.push_back(make_std_cell(561, 800, seed));
  }
  std::vector<Instance> mix_cold;
  for (std::uint64_t seed = 201; seed <= 216; ++seed) {
    mix_cold.push_back(make_std_cell(561, 800, seed));
  }
  // Request schedule: every 4th request is a cold instance (cycled), the
  // rest cycle the hot set (offset by the round so all four hot instances
  // appear) -> 25 cold / 75 hot. Unique keys: 4 + 16 = 20.
  const auto instance_for = [&](int i) -> const Instance& {
    if (i % 4 == 3) return mix_cold[static_cast<std::size_t>(i / 4) %
                                    mix_cold.size()];
    return hot_instances[static_cast<std::size_t>(i / 4 + i % 4) %
                         hot_instances.size()];
  };
  constexpr int kMixRequests = 100;
  constexpr int kClients = 2;
  serve::RequestOptions mix_options;
  mix_options.seed = 7;

  std::vector<serve::Response> responses(kMixRequests);
  Timer mix_timer;
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        // Each client owns requests i with i % kClients == c; one sender
        // and one receiver thread share its connection full-duplex.
        serve::Client mix_client;
        mix_client.connect(socket_path);
        std::vector<int> owned;
        for (int i = c; i < kMixRequests; i += kClients) owned.push_back(i);
        std::thread sender([&] {
          for (const int i : owned) {
            serve::Request request;
            request.op = serve::Request::Op::kPartition;
            request.id = i;
            request.hypergraph = instance_for(i).text;
            request.options = mix_options;
            mix_client.send(request);
          }
        });
        for (std::size_t done = 0; done < owned.size(); ++done) {
          serve::Response response = mix_client.receive();
          // Responses come back in request order per connection.
          expect(response.id == owned[done],
                 "response ids must match request order");
          responses[static_cast<std::size_t>(response.id)] =
              std::move(response);
        }
        sender.join();
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double mix_seconds = mix_timer.seconds();
  FHP_GAUGE_SET("serve/mix_qps",
                static_cast<double>(kMixRequests) / mix_seconds);

  int hits = 0;
  for (int i = 0; i < kMixRequests; ++i) {
    const serve::Response& response = responses[static_cast<std::size_t>(i)];
    expect(response.ok(), "mix request must succeed");
    if (response.cached) ++hits;
    BenchRecorder::instance().add(
        "serve_mix", static_cast<double>(response.latency_us) * 1e-6,
        static_cast<double>(response.cut_edges));
  }
  std::printf("  %d/%d served from cache (%.0f%%), %.0f req/s\n", hits,
              kMixRequests, 100.0 * hits / kMixRequests,
              kMixRequests / mix_seconds);
  expect(hits * 2 >= kMixRequests, "hot-mix cache hit rate must be >= 50%");
  expect(hits == 80, "single-flight must make exactly 80 of 100 hits");

  // Audit every unique key: the daemon answer must be bit-identical to a
  // direct engine call (cache misses and hits alike — hits returned the
  // miss's stored result).
  const serve::BudgetDecision full_budget{mix_options.starts, false};
  for (int i = 0; i < kMixRequests; ++i) {
    if (responses[static_cast<std::size_t>(i)].cached) continue;
    audit_response(instance_for(i).hypergraph, mix_options,
                   responses[static_cast<std::size_t>(i)], full_budget);
  }
  std::printf("  audit: every unique key bit-identical to partition_auto\n");

  // ---- Phase 3: deadline-capped request (serial) -----------------------
  print_header("phase 3: deadline-capped large instance (serial)");
  const Instance large = make_std_cell(2471, 3496, 9);
  serve::RequestOptions deadline_options;
  deadline_options.seed = 3;
  deadline_options.starts = 50;
  deadline_options.engine = ml::EngineChoice::kFlat;
  deadline_options.deadline_us = 50'000;
  // Pinned per-start cost makes the truncation deterministic: the budget
  // becomes (50000/2)/5000 = 5 starts, degraded.
  deadline_options.assume_start_cost_us = 5'000;

  Timer deadline_timer;
  const serve::Response capped =
      client.partition(large.text, deadline_options);
  const double deadline_s = deadline_timer.seconds();
  BenchRecorder::instance().add("serve_deadline", deadline_s,
                                static_cast<double>(capped.cut_edges));
  expect(capped.ok(), "deadline request must succeed");
  expect(capped.degraded, "truncated request must carry the degraded flag");
  expect(!capped.cached, "deadline requests must bypass the cache");
  const serve::BudgetDecision capped_budget = serve::map_deadline(
      deadline_options.starts, deadline_options.deadline_us,
      deadline_options.assume_start_cost_us);
  expect(capped.starts_used == capped_budget.effective_starts,
         "daemon must report the mapped start budget");
  expect(deadline_s * 1e6 <=
             2.0 * static_cast<double>(deadline_options.deadline_us),
         "deadline response must land within 2x the deadline");
  std::printf("  deadline 50 ms -> %d starts, answered in %.1f ms\n",
              capped.starts_used, deadline_s * 1e3);
  audit_response(large.hypergraph, deadline_options, capped, capped_budget);
  std::printf("  audit: degraded response bit-identical at the truncated "
              "budget\n");

  // Re-requesting without a deadline must recompute at full quality (the
  // degraded answer was never cached).
  serve::RequestOptions full_options = deadline_options;
  full_options.deadline_us = 0;
  full_options.assume_start_cost_us = 0;
  const serve::Response full = client.partition(large.text, full_options);
  expect(full.ok() && !full.cached && !full.degraded,
         "full-quality rerun must recompute");
  expect(full.cut_weight <= capped.cut_weight,
         "full budget must not be worse than the degraded cut");

  client.close();
  server.shutdown();
  return g_failures == 0 ? 0 : 1;
}

/// \file serve_mix.cpp
/// The sc-serve-mix workload: its seeded open-loop schedule, the fhp_serve
/// process it runs against, and the two-connection load generator.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "bench.hpp"
#include "gen/circuit.hpp"
#include "hypergraph/io.hpp"
#include "serve/client.hpp"
#include "serve/scheduler.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using fhp::serve::Client;
using fhp::serve::Request;
using fhp::serve::Response;

/// Requests per second, open loop. At this rate the daemon computes about
/// a quarter of the time on a 4-core machine with 2 lanes, so the queue
/// does not grow, and a large job holds up about one request.
constexpr double kRatePerSecond = 5.0;
/// The schedule repeats this pattern of request classes: L = a unique
/// multilevel request (every fourth of them carries a deadline, 20% in
/// all), H = a hot repeat (30%, below half), S = a unique small request
/// (50%). A fixed pattern keeps the share of requests queued behind a large
/// job the same in every run; the seed still draws every instance and
/// option.
constexpr std::string_view kPattern = "LSHSLSHSHS";
constexpr std::size_t kDeadlineEvery = 4;
constexpr std::size_t kHotKeys = 4;
/// Deadline of the deadline class, below the ~0.2 s a full-quality L
/// request costs.
constexpr std::int64_t kDeadlineUs = 50'000;
constexpr int kConnections = 2;
/// Requests answered before the schedule starts (one large, the rest
/// small), so the daemon's first allocations are not timed.
constexpr std::size_t kWarmupSmall = 2;

/// Module-count range per class: [lo, hi].
struct SizeRange {
  VertexId lo;
  VertexId hi;
};

SizeRange size_range(MixKind kind, bool quick) {
  switch (kind) {
    case MixKind::kHot:
      return quick ? SizeRange{300, 500} : SizeRange{800, 1200};
    case MixKind::kSmall:
      return quick ? SizeRange{200, 600} : SizeRange{400, 800};
    case MixKind::kLarge:
    case MixKind::kDeadline:
      // Past the multilevel threshold of 2000 modules.
      return quick ? SizeRange{2100, 2400} : SizeRange{2100, 2600};
  }
  return {0, 0};
}

}  // namespace

const char* mix_kind_name(MixKind kind) {
  switch (kind) {
    case MixKind::kHot:
      return "hot";
    case MixKind::kSmall:
      return "small";
    case MixKind::kLarge:
      return "large";
    case MixKind::kDeadline:
      return "deadline";
  }
  return "?";
}

MixPlan make_mix(std::uint64_t seed, double seconds, bool quick) {
  const fhp::Rng master(seed);
  fhp::Rng rng = master.fork(0);
  const auto n = static_cast<std::size_t>(
      std::max(40.0, std::round(kRatePerSecond * seconds)));
  MixPlan plan;
  const auto add_key = [&](MixKind kind) {
    MixKey key;
    key.kind = kind;
    key.instance_seed = master.fork(1 + plan.keys.size())();
    const SizeRange range = size_range(kind, quick);
    key.modules = range.lo + static_cast<VertexId>(rng.next_below(
                                 static_cast<std::uint64_t>(range.hi - range.lo + 1)));
    key.options.seed = 1 + key.instance_seed % 1000;
    key.options.starts = 50;
    key.options.engine = fhp::ml::EngineChoice::kAuto;
    key.options.refiner = fhp::ml::RefinerChoice::kFlowFm;
    if (kind == MixKind::kDeadline) key.options.deadline_us = kDeadlineUs;
    key.path = std::string(mix_kind_name(kind)) + "-" +
               std::to_string(plan.keys.size()) + ".hgr";
    plan.keys.push_back(std::move(key));
    return plan.keys.size() - 1;
  };
  for (std::size_t i = 0; i < kHotKeys; ++i) add_key(MixKind::kHot);
  plan.warmup.push_back(add_key(MixKind::kLarge));
  for (std::size_t i = 0; i < kWarmupSmall; ++i) {
    plan.warmup.push_back(add_key(MixKind::kSmall));
  }

  std::vector<bool> seen(kHotKeys, false);
  std::size_t hot_turn = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t period = i / kPattern.size();
    MixKind kind = MixKind::kSmall;
    switch (kPattern[i % kPattern.size()]) {
      case 'L':
        kind = period % kDeadlineEvery == kDeadlineEvery - 1 ? MixKind::kDeadline
                                                             : MixKind::kLarge;
        break;
      case 'H':
        kind = MixKind::kHot;
        break;
      default:
        break;
    }
    const std::size_t key =
        kind == MixKind::kHot ? hot_turn++ % kHotKeys : add_key(kind);
    seen.resize(plan.keys.size(), false);
    if (kind != MixKind::kDeadline && !seen[key]) {
      seen[key] = true;
      plan.full_quality_keys.push_back(key);
    }
    plan.requests.push_back({key, static_cast<double>(i) / kRatePerSecond});
  }
  return plan;
}

void write_mix_instance(const MixKey& key) {
  const fhp::CircuitParams params =
      fhp::standard_cell_params(static_cast<double>(key.modules) / 600.0);
  fhp::write_hmetis_file(key.path,
                         fhp::generate_circuit(params, key.instance_seed));
}

fhp::ml::PartitionPlan full_quality_plan(const MixKey& key, int threads) {
  fhp::ml::PartitionPlan plan = fhp::serve::make_plan(
      key.options, fhp::serve::BudgetDecision{key.options.starts, false});
  plan.algorithm1.threads = threads;
  return plan;
}

// ---------------------------------------------------------------------------
// Daemon process
// ---------------------------------------------------------------------------

Daemon::Daemon(const std::string& binary, const std::string& socket,
               int lanes)
    : socket_(socket) {
  const std::string lanes_arg = std::to_string(lanes);
  const double start = now_s();
  pid_ = ::fork();
  if (pid_ == 0) {
    // Die with the benchmark even if it is killed before stop().
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::execl(binary.c_str(), binary.c_str(), "--socket", socket.c_str(),
            "--threads", lanes_arg.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  if (pid_ < 0) throw std::runtime_error("fork failed");
  while (true) {
    try {
      Client client;
      client.connect(socket_);
      if (client.ping().ok()) break;
    } catch (const std::exception&) {
      // Not listening yet.
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("fhp_serve exited before answering a ping");
    }
    if (now_s() - start > 30.0) {
      stop();
      throw std::runtime_error("fhp_serve did not answer a ping within 30 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ready_s_ = now_s() - start;
}

Daemon::~Daemon() { stop(); }

double Daemon::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void Daemon::stop() {
  if (pid_ <= 0) return;
  try {
    Client client;
    client.connect(socket_);
    (void)client.shutdown_server();
  } catch (const std::exception&) {
    // Fall through to the kill below.
  }
  const double start = now_s();
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) != pid_) {
    if (now_s() - start > 10.0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
}

// ---------------------------------------------------------------------------
// Open-loop load generator
// ---------------------------------------------------------------------------

namespace {

/// How far one connection's sender got, so its receiver never waits for a
/// response to a request that was not sent.
struct SendProgress {
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t sent = 0;  ///< requests of this connection written so far
  bool done = false;     ///< the sender stopped (finished or failed)
};

}  // namespace

MixOutcome run_mix(const Daemon& daemon, const std::string& socket,
                   const MixPlan& plan, const std::vector<std::string>& texts) {
  const std::size_t n = plan.requests.size();
  MixOutcome out;
  out.responses.resize(n);
  out.answered.assign(n, false);
  out.latency_s.assign(n, std::numeric_limits<double>::infinity());
  out.send_lag_s.assign(n, 0.0);

  std::vector<Client> clients(kConnections);
  for (Client& client : clients) client.connect(socket);
  for (const std::size_t key : plan.warmup) {
    Request request;
    request.op = Request::Op::kPartition;
    request.hypergraph = texts[key];
    request.options = plan.keys[key].options;
    if (!clients[0].call(request).ok()) {
      throw std::runtime_error("warm-up request failed");
    }
  }
  std::vector<SendProgress> progress(kConnections);
  const double start = now_s() + 0.005;

  const auto sender = [&](int c) {
    std::size_t sent = 0;
    try {
      for (std::size_t i = static_cast<std::size_t>(c); i < n;
           i += kConnections) {
        const MixRequest& item = plan.requests[i];
        const double due = start + item.due_s;
        const double wait = due - now_s();
        if (wait > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        }
        Request request;
        request.op = Request::Op::kPartition;
        request.id = static_cast<std::int64_t>(i);
        request.hypergraph = texts[item.key];
        request.options = plan.keys[item.key].options;
        out.send_lag_s[i] = now_s() - due;
        clients[static_cast<std::size_t>(c)].send(request);
        std::lock_guard<std::mutex> lock(progress[static_cast<std::size_t>(c)].mutex);
        progress[static_cast<std::size_t>(c)].sent = ++sent;
        progress[static_cast<std::size_t>(c)].cv.notify_one();
      }
    } catch (const std::exception& error) {
      std::fprintf(stderr, "perfbench: connection %d send failed: %s\n", c,
                   error.what());
    }
    std::lock_guard<std::mutex> lock(progress[static_cast<std::size_t>(c)].mutex);
    progress[static_cast<std::size_t>(c)].done = true;
    progress[static_cast<std::size_t>(c)].cv.notify_one();
  };
  const auto receiver = [&](int c) {
    SendProgress& mine = progress[static_cast<std::size_t>(c)];
    std::size_t received = 0;
    try {
      for (std::size_t i = static_cast<std::size_t>(c); i < n;
           i += kConnections) {
        {
          std::unique_lock<std::mutex> lock(mine.mutex);
          mine.cv.wait(lock, [&] { return mine.sent > received || mine.done; });
          if (mine.sent <= received) return;
        }
        Response response = clients[static_cast<std::size_t>(c)].receive();
        const double at = now_s();
        ++received;
        if (response.ok()) {
          out.latency_s[i] = at - (start + plan.requests[i].due_s);
        }
        out.responses[i] = std::move(response);
        out.answered[i] = true;
      }
    } catch (const std::exception& error) {
      std::fprintf(stderr, "perfbench: connection %d receive failed: %s\n", c,
                   error.what());
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back(sender, c);
    threads.emplace_back(receiver, c);
  }
  for (std::thread& thread : threads) thread.join();

  Client stats;
  stats.connect(socket);
  out.stats_json = stats.stats().stats_json;
  out.daemon_peak_rss_mb = daemon.peak_rss_mb();
  return out;
}

}  // namespace perfbench

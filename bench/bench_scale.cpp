/// \file bench_scale.cpp
/// Million-module ingest gate: sharded generation + mmap parsing at scale.
///
/// The harness synthesizes a ~1M-module hMETIS netlist chunk-by-chunk to
/// disk (write_sharded_hmetis — peak memory one chunk), then races the two
/// parser stacks over it:
///   - legacy: ifstream + the istream oracle (io.cpp), and
///   - mmap:   MappedFile + the zero-copy SWAR scanner (io_scan.cpp).
/// Wired into CI as a gate — it ABORTS (nonzero exit) when
///   - either parse disagrees structurally with the other (vertex, edge,
///     pin counts, per-edge pin lists, weights), or
///   - the mmap parser is not at least 2x faster (min-of-k) than the
///     legacy parser on the 1M-module instance. The margin in practice is
///     ~10x; 2x keeps scheduler noise out of CI while still catching a
///     real regression of the zero-copy path.
/// A Bookshelf leg runs the same differential check at smaller scale
/// (informational timing only — the .nets pin lines make legacy costs
/// name-lookup-bound, a different fight).
/// Throughput lands as modules/sec gauges, wall times and module counts
/// as BENCH_scale.json series (module counts double as the deterministic
/// "cut" channel the benchdiff sentinel gates hard), peak RSS in the
/// session footer.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench_common.hpp"
#include "gen/sharded.hpp"
#include "hypergraph/bookshelf.hpp"
#include "hypergraph/io.hpp"
#include "obs/counters.hpp"
#include "util/mmap.hpp"

namespace {

using namespace fhp;
using namespace fhp::bench;

int failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) {
    std::printf("  [ok]   %s\n", what.c_str());
  } else {
    std::printf("  [FAIL] %s\n", what.c_str());
    ++failures;
  }
}

/// Structural equality of two parses (ids, pins, weights). The mmap parser
/// must be indistinguishable from the oracle, not merely similar.
bool same_hypergraph(const Hypergraph& a, const Hypergraph& b) {
  if (a.num_vertices() != b.num_vertices() || a.num_edges() != b.num_edges() ||
      a.num_pins() != b.num_pins()) {
    return false;
  }
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    const auto pa = a.pins(e);
    const auto pb = b.pins(e);
    if (pa.size() != pb.size() || a.edge_weight(e) != b.edge_weight(e)) {
      return false;
    }
    for (std::size_t i = 0; i < pa.size(); ++i) {
      if (pa[i] != pb[i]) return false;
    }
  }
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    if (a.vertex_weight(v) != b.vertex_weight(v)) return false;
  }
  return true;
}

/// Min-of-k wall time of \p run; records (seconds, modules) under \p label
/// so the series' "cut" channel is deterministic for the sentinel.
template <typename RunFn>
double time_parse(const char* label, double modules, int reps, RunFn&& run) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    Timer timer;
    static_cast<void>(run());
    const double seconds = timer.seconds();
    if (rep == 0 || seconds < best) best = seconds;
  }
  BenchRecorder::instance().add(label, best, modules);
  return best;
}

void hmetis_leg() {
  print_header("hMETIS ingest: 1M modules, sharded generation");
  const std::string dir = unique_temp_path("fhp_bench_scale").string();
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/scale_1m.hgr";

  CircuitParams params = gate_array_params(1.0);
  params.num_modules = 1'000'000;
  params.num_nets = 1'300'000;

  Timer gen_timer;
  const ShardedNetlistStats stats = write_sharded_hmetis(path, params, 42);
  const double gen_seconds = gen_timer.seconds();
  const auto modules = static_cast<double>(stats.num_modules);
  BenchRecorder::instance().add("generate/hgr_1m", gen_seconds, modules);
  std::printf(
      "  generated %llu modules / %llu nets / %llu pins in %.2fs "
      "(%llu chunks, %.0f modules/sec)\n",
      static_cast<unsigned long long>(stats.num_modules),
      static_cast<unsigned long long>(stats.num_nets),
      static_cast<unsigned long long>(stats.num_pins),
      gen_seconds,
      static_cast<unsigned long long>(stats.num_chunks),
      modules / gen_seconds);
  check(stats.num_modules >= 1'000'000, "instance has >= 1M modules");

  // Warm the page cache once so both parsers read memory, not disk.
  Hypergraph mmap_parsed = read_hmetis_file(path);

  const double mmap_seconds =
      time_parse("parse_mmap/hgr_1m", modules, 3,
                 [&] { mmap_parsed = read_hmetis_file(path); });

  Hypergraph legacy_parsed;
  const double legacy_seconds =
      time_parse("parse_legacy/hgr_1m", modules, 2, [&] {
        std::ifstream in(path);
        legacy_parsed = read_hmetis(in);
      });

  std::printf("  legacy: %.3fs (%.0f modules/sec)\n", legacy_seconds,
              modules / legacy_seconds);
  std::printf("  mmap:   %.3fs (%.0f modules/sec, %.1fx)\n", mmap_seconds,
              modules / mmap_seconds, legacy_seconds / mmap_seconds);
  FHP_GAUGE_SET("scale.hgr.modules", modules);
  FHP_GAUGE_SET("scale.hgr.pins", static_cast<double>(stats.num_pins));
  FHP_GAUGE_SET("scale.hgr.modules_per_sec_mmap", modules / mmap_seconds);
  FHP_GAUGE_SET("scale.hgr.modules_per_sec_legacy", modules / legacy_seconds);
  FHP_GAUGE_SET("scale.hgr.speedup", legacy_seconds / mmap_seconds);

  check(same_hypergraph(mmap_parsed, legacy_parsed),
        "mmap parse == istream oracle (1M-module instance)");
  check(mmap_parsed.num_vertices() == stats.num_modules &&
            mmap_parsed.num_edges() == stats.num_nets &&
            mmap_parsed.num_pins() <= stats.num_pins,
        "parsed shape matches generator stats");
  check(mmap_seconds * 2.0 <= legacy_seconds,
        "mmap parser >= 2x faster than legacy istream parser");

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

void bookshelf_leg() {
  print_header("Bookshelf ingest: 200k modules (differential)");
  const std::string dir = unique_temp_path("fhp_bench_scale_bs").string();
  std::filesystem::create_directories(dir);
  const std::string nodes_path = dir + "/scale.nodes";
  const std::string nets_path = dir + "/scale.nets";

  CircuitParams params = gate_array_params(1.0);
  params.num_modules = 200'000;
  params.num_nets = 260'000;

  Timer gen_timer;
  const ShardedNetlistStats stats =
      write_sharded_bookshelf(nodes_path, nets_path, params, 42);
  const double gen_seconds = gen_timer.seconds();
  const auto modules = static_cast<double>(stats.num_modules);
  BenchRecorder::instance().add("generate/bookshelf_200k", gen_seconds,
                                modules);

  BookshelfDesign mmap_design = read_bookshelf_files(nodes_path, nets_path);
  const double mmap_seconds =
      time_parse("parse_mmap/bookshelf_200k", modules, 2, [&] {
        mmap_design = read_bookshelf_files(nodes_path, nets_path);
      });
  BookshelfDesign legacy_design;
  const double legacy_seconds =
      time_parse("parse_legacy/bookshelf_200k", modules, 2, [&] {
        std::ifstream nodes(nodes_path);
        std::ifstream nets(nets_path);
        legacy_design = read_bookshelf(nodes, nets);
      });
  std::printf("  legacy: %.3fs   mmap: %.3fs (%.1fx)\n", legacy_seconds,
              mmap_seconds, legacy_seconds / mmap_seconds);
  FHP_GAUGE_SET("scale.bookshelf.modules_per_sec_mmap",
                modules / mmap_seconds);
  FHP_GAUGE_SET("scale.bookshelf.modules_per_sec_legacy",
                modules / legacy_seconds);

  check(same_hypergraph(mmap_design.netlist.hypergraph,
                        legacy_design.netlist.hypergraph) &&
            mmap_design.netlist.vertex_names ==
                legacy_design.netlist.vertex_names &&
            mmap_design.netlist.edge_names ==
                legacy_design.netlist.edge_names &&
            mmap_design.is_terminal == legacy_design.is_terminal,
        "mmap Bookshelf parse == istream oracle (200k-module design)");

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace

int main() {
  BenchSession session("scale");
  hmetis_leg();
  bookshelf_leg();

  FHP_GAUGE_SET("scale.peak_rss_bytes",
                static_cast<double>(peak_rss_bytes()));
  std::printf("\n%s\n", failures == 0 ? "bench_scale: ALL GATES PASSED"
                                      : "bench_scale: GATE FAILURES");
  return failures == 0 ? 0 : 1;
}

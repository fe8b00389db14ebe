/// \file fuzz.hpp
/// Structure-aware differential fuzzing harness.
///
/// Each instance is drawn from one of the library's generators with a
/// deterministically forked RNG stream (Rng::fork of the run seed), then
/// driven through three channels:
///
///  1. **hMETIS text**: serialize, optionally mutate the text, and parse.
///     Malformed text must be rejected with a typed IoError — any other
///     exception, or a parse that yields an ill-formed hypergraph (per
///     audit_hypergraph), is a failure. Unmutated text must round-trip
///     byte-identically. Surviving instances with >= 2 modules run
///     Algorithm I, whose output is audited (audit_algorithm1: legality,
///     recomputed-cut cross-check, completion dominance) and whose
///     intersection graph is differentially checked against the
///     intersection_graph_reference() oracle. The audited partition then
///     runs through the corridor flow refiner, and the instance through
///     partition_auto on the multilevel path with flow+fm refinement:
///     the result must audit clean, report the cut of its sides, and no
///     level's refinement may raise the cut.
///  2. **named netlist text**: the same serialize/mutate/parse/audit loop
///     through write_netlist/read_netlist, with a fixed-point check
///     (write . read idempotent) instead of byte equality — the named
///     format relabels modules by first appearance.
///  3. **partition text**: write_partition/read_partition with an exact
///     read-back check on unmutated text.
///
/// Every failure records the generator and instance index, so any finding
/// reproduces exactly via FuzzOptions::only_generator /
/// FuzzOptions::only_instance (or the fuzz_tool --generator/--instance
/// flags) with the same seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fhp::validate {

/// Knobs of the fuzz run. Defaults match the CI smoke configuration
/// except instances_per_generator, which defaults to the full run.
struct FuzzOptions {
  /// Instances drawn from each generator family.
  int instances_per_generator = 200;
  /// Master seed; every (seed, generator, instance) triple is reproducible
  /// in isolation.
  std::uint64_t seed = 1;
  /// Algorithm I multi-start breadth on surviving instances (small: the
  /// audit holds per start, more starts only cost time).
  int algorithm_starts = 4;
  /// Probability that an instance's serialized text is mutated before
  /// parsing. Unmutated instances exercise the round-trip invariants.
  double mutate_probability = 0.5;
  /// Restrict the run to one generator family (empty = all; see
  /// fuzz_generator_names()).
  std::string only_generator;
  /// Run a single instance index (-1 = all). With only_generator this
  /// replays exactly one pipeline for debugging.
  std::int64_t only_instance = -1;
};

/// One reproducible failure.
struct FuzzFailure {
  std::string generator;   ///< family name
  std::uint64_t instance;  ///< fork index within the family
  std::string what;        ///< which invariant broke, with detail
};

/// Aggregate outcome of a fuzz run.
struct FuzzStats {
  std::size_t instances = 0;    ///< generated instances
  std::size_t mutated = 0;      ///< serializations mutated before parsing
  std::size_t parsed = 0;       ///< successful parses across channels
  std::size_t rejected = 0;     ///< typed IoError rejections (expected)
  std::size_t partitioned = 0;  ///< instances driven through Algorithm I
  std::size_t flow_refined = 0;  ///< partitions driven through FlowRefiner
  std::size_t engine_partitioned = 0;  ///< instances through partition_auto
  std::size_t round_trips = 0;  ///< byte-identical / fixed-point re-reads
  std::vector<FuzzFailure> failures;

  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
  /// One-line counts plus one line per failure.
  [[nodiscard]] std::string to_string() const;
};

/// The generator family names accepted by FuzzOptions::only_generator:
/// "circuit", "grid", "planted", "random", "structured".
[[nodiscard]] const std::vector<std::string>& fuzz_generator_names();

/// Runs the harness. Deterministic: equal options give equal stats,
/// including the failure list.
[[nodiscard]] FuzzStats run_fuzz(const FuzzOptions& options = {});

}  // namespace fhp::validate

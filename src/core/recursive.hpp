/// \file recursive.hpp
/// Recursive multi-way partitioning on top of Algorithm I.
///
/// Min-cut *placement* (Breuer's motivation in the paper's introduction)
/// repeatedly bisects the netlist to assign modules to layout regions.
/// This module provides the k-way driver: split the target part count
/// proportionally, bisect with Algorithm I, recurse on each induced
/// sub-netlist.
#pragma once

#include <cstdint>
#include <vector>

#include "core/algorithm1.hpp"
#include "hypergraph/hypergraph.hpp"

namespace fhp {

/// Result of a k-way recursive partition.
struct KWayResult {
  std::vector<std::uint32_t> part;  ///< part id in [0, k) per module
  EdgeId cut_edges = 0;   ///< nets spanning more than one part
  Weight max_part_weight = 0;
  Weight min_part_weight = 0;
};

/// Knobs of the recursive driver.
struct RecursiveOptions {
  /// Per-bisection Algorithm I configuration (seed is re-derived from the
  /// recursion path).
  Algorithm1Options algorithm1;
  /// Rebalance each bisection toward the sub-block's target split with a
  /// gain-aware pass before recursing. Placement flows want this on: raw
  /// Algorithm I optimizes the cut and only softly tracks balance, which
  /// compounds across recursion levels.
  bool rebalance = false;
  /// Allowed relative weight deviation per bisection when rebalancing
  /// (0.1 = each side within 10% of its target share).
  double balance_tolerance = 0.1;
};

/// Partitions \p h into \p k parts by recursive bisection with Algorithm I
/// under \p options (the per-bisection seed is derived from options.seed
/// and the recursion path, so results are deterministic).
/// Requires 1 <= k <= num_vertices.
[[nodiscard]] KWayResult recursive_partition(const Hypergraph& h,
                                             std::uint32_t k,
                                             const Algorithm1Options& options = {});

/// Full-control overload.
[[nodiscard]] KWayResult recursive_partition(const Hypergraph& h,
                                             std::uint32_t k,
                                             const RecursiveOptions& options);

/// Number of nets of \p h spanning >= 2 distinct parts under \p part.
[[nodiscard]] EdgeId kway_cut_edges(const Hypergraph& h,
                                    const std::vector<std::uint32_t>& part);

/// Greedily moves best-gain modules from the overweight side of \p p
/// until side 0's weight is within `tolerance * total` of
/// `target_frac0 * total`. Every move never grows the deviation (and
/// strictly shrinks it for positive-weight modules). Candidates come from
/// the shared gain engine (partition/gain_engine.hpp): one O(pins) gain
/// sweep up front, delta-gain updates per move, and a weight-ranked
/// tournament queried over the admissible weight prefix — selecting
/// exactly the module a full rescan would (highest gain, lowest id on
/// ties).
/// Used by the recursive driver, the corridor flow refiner's balance
/// recovery, and the placement flow.
void rebalance_bipartition(Bipartition& p, double target_frac0,
                           double tolerance);

}  // namespace fhp

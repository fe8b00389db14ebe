/// \file io.hpp
/// Netlist and partition file I/O.
///
/// Two netlist formats are supported:
///
/// 1. **hMETIS format** (the de-facto standard for hypergraph partitioning
///    benchmarks): first line `num_edges num_vertices [fmt]`, then one line
///    of 1-indexed pins per edge. fmt = 1 adds edge weights as a leading
///    token per edge line; fmt = 10 appends one vertex-weight line per
///    vertex; fmt = 11 does both.
///
/// 2. **Named netlist format**, matching the paper's worked example
///    (§2, Figure 4): lines of `signal: module module ...`, where names are
///    arbitrary identifiers. Comment lines start with '#'.
///
/// Partition files hold one side (0/1) per vertex per line.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "hypergraph/hypergraph.hpp"

namespace fhp {

/// A hypergraph plus the human names of its modules and nets.
struct NamedNetlist {
  Hypergraph hypergraph;
  std::vector<std::string> vertex_names;  ///< index = VertexId
  std::vector<std::string> edge_names;    ///< index = EdgeId

  /// Id of the named module; throws IoError if unknown.
  [[nodiscard]] VertexId vertex(const std::string& name) const;
  /// Id of the named net; throws IoError if unknown.
  [[nodiscard]] EdgeId edge(const std::string& name) const;
};

/// Parses hMETIS format from a stream. Throws IoError on malformed input
/// and PreconditionError when the weight totals overflow Weight.
/// This is the legacy istream path, kept as the differential oracle for the
/// zero-copy overload below; prefer read_hmetis_file / the string_view
/// overload for anything performance-sensitive.
[[nodiscard]] Hypergraph read_hmetis(std::istream& in);
/// Parses hMETIS format from an in-memory buffer (typically an mmap'ed
/// file) with the zero-copy scanner: two passes, the first counting lines
/// and pins so every array is allocated exactly once at its final size.
/// A truncated edge section fails with a typed IoError *before* any
/// edge- or pin-proportional allocation happens; only the declared vertex
/// count is trusted up front (bounded by kMaxIndexCount — ~16 bytes per
/// declared vertex, see docs/formats.md "Large instances"). Bit-identical
/// to the istream parser on well-formed input (enforced by differential
/// tests).
[[nodiscard]] Hypergraph read_hmetis(std::string_view text);
/// Parses an hMETIS file from disk via mmap (string_view overload above).
[[nodiscard]] Hypergraph read_hmetis_file(const std::string& path);
/// Writes hMETIS format (fmt 11 when any weight differs from 1, else plain).
void write_hmetis(std::ostream& out, const Hypergraph& h);
/// Writes an hMETIS file to disk.
void write_hmetis_file(const std::string& path, const Hypergraph& h);

/// Parses the named `signal: modules` format. Module ids are assigned in
/// order of first appearance. Throws IoError on malformed input.
[[nodiscard]] NamedNetlist read_netlist(std::istream& in);
/// Parses a named netlist file from disk.
[[nodiscard]] NamedNetlist read_netlist_file(const std::string& path);
/// Writes the named `signal: modules` format.
void write_netlist(std::ostream& out, const NamedNetlist& netlist);

/// Reads a partition file (one 0/1 per line). Throws IoError unless exactly
/// \p expected_vertices values in {0,1} are present.
[[nodiscard]] std::vector<std::uint8_t> read_partition(
    std::istream& in, VertexId expected_vertices);
/// Writes a partition file.
void write_partition(std::ostream& out, const std::vector<std::uint8_t>& sides);

}  // namespace fhp

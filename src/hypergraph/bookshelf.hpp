/// \file bookshelf.hpp
/// GSRC/UCLA "Bookshelf" netlist I/O (.nodes / .nets pair) — the standard
/// interchange format of the academic placement community, which makes
/// this library usable directly on published placement benchmarks.
///
/// Supported subset:
///   .nodes  — `UCLA nodes 1.0` header, `NumNodes : N`,
///             `NumTerminals : T`, then `name width height [terminal]`
///             per node. Module weight = max(1, width * height).
///   .nets   — `UCLA nets 1.0` header, `NumNets : N`, `NumPins : P`,
///             then per net `NetDegree : k [name]` followed by k pin
///             lines `nodename [I|O|B] [: xoff yoff]` (directions and
///             offsets are accepted and ignored — partitioning only needs
///             connectivity).
/// Comment lines start with '#'. Parsers throw fhp::IoError with precise
/// messages on malformed input, and fhp::PreconditionError when the total
/// node area overflows Weight.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "hypergraph/io.hpp"

namespace fhp {

/// A parsed bookshelf design: netlist plus terminal (pad) markers.
struct BookshelfDesign {
  NamedNetlist netlist;
  /// is_terminal[v] = 1 for pad/terminal nodes.
  std::vector<std::uint8_t> is_terminal;
};

/// Parses a .nodes / .nets stream pair. This is the legacy istream path,
/// kept as the differential oracle for the zero-copy overload below.
[[nodiscard]] BookshelfDesign read_bookshelf(std::istream& nodes,
                                             std::istream& nets);

/// Parses a .nodes / .nets pair from in-memory buffers (typically mmap'ed
/// files) with the zero-copy scanner. Line counts are verified against the
/// declared NumNodes/NumNets/NumPins before any count-proportional
/// allocation, so truncated input fails with a typed IoError instead of an
/// OOM attempt. Identical results to the istream parser on well-formed
/// input (enforced by differential tests).
[[nodiscard]] BookshelfDesign read_bookshelf(std::string_view nodes_text,
                                             std::string_view nets_text);

/// Parses a .nodes / .nets file pair from disk via mmap (overload above).
[[nodiscard]] BookshelfDesign read_bookshelf_files(
    const std::string& nodes_path, const std::string& nets_path);

/// Writes the design back out in bookshelf form (unit square area per
/// weight unit: width = weight, height = 1).
void write_bookshelf(std::ostream& nodes, std::ostream& nets,
                     const BookshelfDesign& design);

}  // namespace fhp

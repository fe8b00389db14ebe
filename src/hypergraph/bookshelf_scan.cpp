/// \file bookshelf_scan.cpp
/// Zero-copy Bookshelf (.nodes/.nets) parser over in-memory buffers.
///
/// Same playbook as io_scan.cpp: a counting pass verifies the file body
/// against the declared NumNodes/NumNets/NumPins before anything
/// count-proportional is allocated (every array here is backed by real
/// lines, so a hostile header cannot force a large allocation), then a
/// parse pass decodes tokens in place. Node names are looked up through a
/// string_view map into the buffer — the per-pin std::string allocation of
/// the istream parser (one per pin line, the dominant cost on large
/// designs) disappears entirely. The istream parser in bookshelf.cpp is
/// the differential oracle.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <string_view>
#include <unordered_map>

#include "hypergraph/bookshelf.hpp"
#include "hypergraph/scan.hpp"
#include "util/mmap.hpp"

namespace fhp {

namespace {

/// Matches the legacy header check: line starts with "UCLA" and mentions
/// \p kind ("nodes" or "nets").
void expect_header(ByteScanner& scanner, const char* kind) {
  LineSpan line;
  if (!scanner.next(line) || !line.view().starts_with("UCLA") ||
      line.view().find(kind) == std::string_view::npos) {
    throw IoError(std::string("missing 'UCLA ") + kind + "' header");
  }
}

/// Parses a `Key : N` line (legacy parse_count semantics: key and colon
/// must both appear; the first token after the colon is the value; extra
/// trailing tokens are ignored).
std::int64_t parse_count(LineSpan line, const char* key) {
  const std::string_view text = line.view();
  const std::size_t colon = text.find(':');
  if (colon == std::string_view::npos ||
      text.find(key) == std::string_view::npos) {
    throw IoError(std::string("expected '") + key + " : N', got '" +
                  std::string(text) + "'");
  }
  TokenScanner tokens(LineSpan{line.begin + colon + 1, line.end});
  std::string_view tok;
  std::int64_t count = -1;
  if (tokens.next(tok)) {
    try {
      count = parse_i64(tok, key);
    } catch (const IoError&) {
      count = -1;
    }
  }
  if (count < 0) {
    throw IoError("bad count in '" + std::string(text) + "'");
  }
  return count;
}

/// Module weight from node dimensions: max(1, width * height), with the
/// product guarded against NaN/overflow before the integer cast (casting
/// a non-finite or out-of-range double to Weight is undefined behavior).
Weight node_area(double width, double height, std::string_view line) {
  const double area = width * height;
  if (!std::isfinite(area) ||
      area >= static_cast<double>(std::numeric_limits<Weight>::max())) {
    throw IoError("node area out of range in '" + std::string(line) + "'");
  }
  return std::max<Weight>(1, static_cast<Weight>(area));
}

/// std::from_chars double parse of a whole token; false on trailing junk.
bool parse_double(std::string_view tok, double& out) {
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), out);
  return ec == std::errc{} && ptr == tok.data() + tok.size();
}

std::uint64_t count_content_lines(std::string_view text) {
  ByteScanner scanner(text, '#');
  LineSpan line;
  while (scanner.next(line)) {
  }
  return scanner.content_lines();
}

}  // namespace

BookshelfDesign read_bookshelf(std::string_view nodes_text,
                               std::string_view nets_text) {
  BookshelfDesign design;

  // ---- .nodes: header + census ----
  ByteScanner nodes(nodes_text, '#');
  LineSpan line;
  expect_header(nodes, "nodes");
  if (!nodes.next(line)) throw IoError("missing NumNodes");
  const std::int64_t num_nodes = parse_count(line, "NumNodes");
  if (!nodes.next(line)) throw IoError("missing NumTerminals");
  const std::int64_t num_terminals = parse_count(line, "NumTerminals");
  if (num_terminals > num_nodes) {
    throw IoError("more terminals than nodes");
  }
  if (static_cast<std::uint64_t>(num_nodes) > kMaxIndexCount) {
    throw IoError(
        "NumNodes exceeds the supported id range (" +
        std::to_string(kMaxIndexCount) +
        "); rebuild with -DFHP_INDEX_64=ON for larger instances");
  }
  {
    const std::uint64_t total = count_content_lines(nodes_text);
    // Header + two count lines precede the node records.
    if (total < 3 + static_cast<std::uint64_t>(num_nodes)) {
      throw IoError(".nodes ends before node " + std::to_string(total - 2));
    }
  }

  // ---- .nodes: parse records ----
  std::vector<Weight> vertex_weights;
  vertex_weights.reserve(static_cast<std::size_t>(num_nodes));
  design.netlist.vertex_names.reserve(static_cast<std::size_t>(num_nodes));
  design.is_terminal.reserve(static_cast<std::size_t>(num_nodes));
  std::unordered_map<std::string_view, VertexId> ids;
  ids.reserve(static_cast<std::size_t>(num_nodes));
  for (std::int64_t i = 0; i < num_nodes; ++i) {
    (void)nodes.next(line);  // presence verified by the census
    TokenScanner tokens(line);
    std::string_view name, width_tok, height_tok, terminal;
    double width = 0;
    double height = 0;
    if (!tokens.next(name) || !tokens.next(width_tok) ||
        !tokens.next(height_tok) || !parse_double(width_tok, width) ||
        !parse_double(height_tok, height)) {
      throw IoError("bad node line '" + std::string(line.view()) + "'");
    }
    (void)tokens.next(terminal);
    if (width < 0 || height < 0) {
      throw IoError("negative dimensions in '" + std::string(line.view()) +
                    "'");
    }
    const auto v = static_cast<VertexId>(vertex_weights.size());
    if (!ids.emplace(name, v).second) {
      throw IoError("duplicate node '" + std::string(name) + "'");
    }
    vertex_weights.push_back(node_area(width, height, line.view()));
    design.netlist.vertex_names.emplace_back(name);
    design.is_terminal.push_back(terminal == "terminal" ? 1 : 0);
  }

  // ---- .nets: header + census ----
  ByteScanner nets(nets_text, '#');
  expect_header(nets, "nets");
  if (!nets.next(line)) throw IoError("missing NumNets");
  const std::int64_t num_nets = parse_count(line, "NumNets");
  if (!nets.next(line)) throw IoError("missing NumPins");
  const std::int64_t num_pins = parse_count(line, "NumPins");
  if (static_cast<std::uint64_t>(num_nets) > kMaxIndexCount) {
    throw IoError(
        "NumNets exceeds the supported id range (" +
        std::to_string(kMaxIndexCount) +
        "); rebuild with -DFHP_INDEX_64=ON for larger instances");
  }
  {
    const std::uint64_t total = count_content_lines(nets_text);
    // Header + two count lines + one NetDegree line per net + one line per
    // listed pin. (A pin total below NumPins surfaces here as truncation;
    // the legacy parser reports the same file as a NumPins mismatch — both
    // are typed IoErrors.)
    const std::uint64_t needed = 3 + static_cast<std::uint64_t>(num_nets) +
                                 static_cast<std::uint64_t>(num_pins);
    if (total < needed) {
      throw IoError(".nets is truncated: " + std::to_string(total) +
                    " content lines, but NumNets/NumPins imply at least " +
                    std::to_string(needed));
    }
  }

  // ---- .nets: parse records into the CSR ----
  std::vector<std::size_t> edge_offsets;
  edge_offsets.reserve(static_cast<std::size_t>(num_nets) + 1);
  std::vector<VertexId> edge_pins(static_cast<std::size_t>(num_pins));
  design.netlist.edge_names.reserve(static_cast<std::size_t>(num_nets));
  std::int64_t pins_seen = 0;
  std::size_t write = 0;
  for (std::int64_t n = 0; n < num_nets; ++n) {
    // The census guarantees enough lines for a well-formed body, but a net
    // over-declaring its degree can exhaust them early — recheck.
    if (!nets.next(line)) {
      throw IoError(".nets ends before net " + std::to_string(n + 1));
    }
    const std::string_view text = line.view();
    if (text.find("NetDegree") == std::string_view::npos) {
      throw IoError("expected NetDegree line, got '" + std::string(text) +
                    "'");
    }
    const std::size_t colon = text.find(':');
    std::int64_t degree = -1;
    std::string_view net_name;
    if (colon != std::string_view::npos) {
      TokenScanner tokens(LineSpan{line.begin + colon + 1, line.end});
      std::string_view tok;
      if (tokens.next(tok)) {
        try {
          degree = parse_i64(tok, "NetDegree");
        } catch (const IoError&) {
          degree = -1;
        }
        (void)tokens.next(net_name);
      }
    }
    if (degree <= 0) {
      throw IoError("bad NetDegree in '" + std::string(text) + "'");
    }
    std::string name(net_name);
    if (name.empty()) {
      name = "n";
      name += std::to_string(n);
    }
    design.netlist.edge_names.push_back(std::move(name));

    const std::size_t row_begin = write;
    edge_offsets.push_back(row_begin);
    for (std::int64_t p = 0; p < degree; ++p) {
      if (!nets.next(line)) {
        throw IoError("net '" + design.netlist.edge_names.back() +
                      "' ends early");
      }
      TokenScanner tokens(line);
      std::string_view node;
      (void)tokens.next(node);  // content lines always hold >= 1 token
      const auto it = ids.find(node);
      if (it == ids.end()) {
        throw IoError("net '" + design.netlist.edge_names.back() +
                      "' references unknown node '" + std::string(node) + "'");
      }
      if (write == edge_pins.size()) {
        // More pins listed than NumPins declared; keep going so the final
        // mismatch diagnostic reports the true total, like the oracle.
        edge_pins.push_back(it->second);
        ++write;
      } else {
        edge_pins[write++] = it->second;
      }
      ++pins_seen;
    }
    // Sort + dedupe this net's pins in place (HypergraphBuilder semantics).
    const auto row = edge_pins.begin() + static_cast<std::ptrdiff_t>(row_begin);
    const auto row_end = edge_pins.begin() + static_cast<std::ptrdiff_t>(write);
    std::sort(row, row_end);
    write = static_cast<std::size_t>(
        std::distance(edge_pins.begin(), std::unique(row, row_end)));
  }
  if (pins_seen != num_pins) {
    throw IoError("NumPins says " + std::to_string(num_pins) + " but " +
                  std::to_string(pins_seen) + " pins were listed");
  }
  edge_offsets.push_back(write);
  edge_pins.resize(write);

  const auto num_edges = edge_offsets.size() - 1;
  design.netlist.hypergraph = Hypergraph::from_csr(
      std::move(edge_offsets), std::move(edge_pins),
      std::move(vertex_weights), std::vector<Weight>(num_edges, Weight{1}));
  return design;
}

BookshelfDesign read_bookshelf_files(const std::string& nodes_path,
                                     const std::string& nets_path) {
  const MappedFile nodes(nodes_path);
  const MappedFile nets(nets_path);
  return read_bookshelf(nodes.view(), nets.view());
}

}  // namespace fhp

#include "hypergraph/bookshelf.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <unordered_map>

namespace fhp {

namespace {

/// Next non-empty, non-comment line; returns false at end of stream.
bool next_line(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    const std::size_t cut = line.find('#');
    if (cut != std::string::npos) line.erase(cut);
    const auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
    while (!line.empty() && is_space(static_cast<unsigned char>(line.back())))
      line.pop_back();
    std::size_t start = 0;
    while (start < line.size() &&
           is_space(static_cast<unsigned char>(line[start])))
      ++start;
    line.erase(0, start);
    if (!line.empty()) return true;
  }
  return false;
}

/// Parses a `Key : value` line; returns the numeric value.
long long parse_count(const std::string& line, const std::string& key) {
  const std::size_t pos = line.find(':');
  if (pos == std::string::npos || line.find(key) == std::string::npos) {
    throw IoError("expected '" + key + " : N', got '" + line + "'");
  }
  std::istringstream value(line.substr(pos + 1));
  long long count = -1;
  value >> count;
  if (count < 0) {
    throw IoError("bad count in '" + line + "'");
  }
  return count;
}

void expect_header(std::istream& in, const char* kind, std::string& line) {
  if (!next_line(in, line) || line.rfind("UCLA", 0) != 0 ||
      line.find(kind) == std::string::npos) {
    throw IoError(std::string("missing 'UCLA ") + kind + "' header");
  }
}

}  // namespace

BookshelfDesign read_bookshelf(std::istream& nodes, std::istream& nets) {
  BookshelfDesign design;
  HypergraphBuilder builder;
  std::unordered_map<std::string, VertexId> ids;

  // ---- .nodes ----
  std::string line;
  expect_header(nodes, "nodes", line);
  if (!next_line(nodes, line)) throw IoError("missing NumNodes");
  const long long num_nodes = parse_count(line, "NumNodes");
  if (!next_line(nodes, line)) throw IoError("missing NumTerminals");
  const long long num_terminals = parse_count(line, "NumTerminals");
  if (num_terminals > num_nodes) {
    throw IoError("more terminals than nodes");
  }
  if (static_cast<unsigned long long>(num_nodes) > kMaxIndexCount) {
    throw IoError(
        "NumNodes exceeds the supported id range (" +
        std::to_string(kMaxIndexCount) +
        "); rebuild with -DFHP_INDEX_64=ON for larger instances");
  }

  for (long long i = 0; i < num_nodes; ++i) {
    if (!next_line(nodes, line)) {
      throw IoError(".nodes ends before node " + std::to_string(i + 1));
    }
    std::istringstream is(line);
    std::string name;
    double width = 0;
    double height = 0;
    std::string terminal;
    if (!(is >> name >> width >> height)) {
      throw IoError("bad node line '" + line + "'");
    }
    is >> terminal;
    if (width < 0 || height < 0) {
      throw IoError("negative dimensions in '" + line + "'");
    }
    if (ids.contains(name)) {
      throw IoError("duplicate node '" + name + "'");
    }
    const double area_f = width * height;
    // Guard the double->Weight cast: converting NaN/inf or a value beyond
    // the integer range is undefined behavior, not just a bad weight.
    if (!std::isfinite(area_f) ||
        area_f >= static_cast<double>(std::numeric_limits<Weight>::max())) {
      throw IoError("node area out of range in '" + line + "'");
    }
    const auto area = static_cast<Weight>(area_f);
    const VertexId v = builder.add_vertex(std::max<Weight>(1, area));
    ids.emplace(name, v);
    design.netlist.vertex_names.push_back(name);
    design.is_terminal.push_back(terminal == "terminal" ? 1 : 0);
  }

  // ---- .nets ----
  expect_header(nets, "nets", line);
  if (!next_line(nets, line)) throw IoError("missing NumNets");
  const long long num_nets = parse_count(line, "NumNets");
  if (!next_line(nets, line)) throw IoError("missing NumPins");
  const long long num_pins = parse_count(line, "NumPins");
  if (static_cast<unsigned long long>(num_nets) > kMaxIndexCount) {
    throw IoError(
        "NumNets exceeds the supported id range (" +
        std::to_string(kMaxIndexCount) +
        "); rebuild with -DFHP_INDEX_64=ON for larger instances");
  }

  long long pins_seen = 0;
  for (long long n = 0; n < num_nets; ++n) {
    if (!next_line(nets, line)) {
      throw IoError(".nets ends before net " + std::to_string(n + 1));
    }
    if (line.find("NetDegree") == std::string::npos) {
      throw IoError("expected NetDegree line, got '" + line + "'");
    }
    const std::size_t colon = line.find(':');
    std::istringstream header(line.substr(colon + 1));
    long long degree = -1;
    std::string net_name;
    header >> degree >> net_name;
    if (degree <= 0) throw IoError("bad NetDegree in '" + line + "'");
    if (net_name.empty()) {
      net_name = "n";
      net_name += std::to_string(n);
    }

    std::vector<VertexId> pins;
    for (long long p = 0; p < degree; ++p) {
      if (!next_line(nets, line)) {
        throw IoError("net '" + net_name + "' ends early");
      }
      std::istringstream pin(line);
      std::string node;
      pin >> node;
      const auto it = ids.find(node);
      if (it == ids.end()) {
        throw IoError("net '" + net_name + "' references unknown node '" +
                      node + "'");
      }
      pins.push_back(it->second);
      ++pins_seen;
    }
    design.netlist.edge_names.push_back(net_name);
    builder.add_edge(std::span<const VertexId>(pins));
  }
  if (pins_seen != num_pins) {
    throw IoError("NumPins says " + std::to_string(num_pins) + " but " +
                  std::to_string(pins_seen) + " pins were listed");
  }

  design.netlist.hypergraph = std::move(builder).build();
  return design;
}

// read_bookshelf_files lives in bookshelf_scan.cpp: the disk entry point
// maps both files and runs the zero-copy parser; this translation unit
// keeps the istream oracle and the writer.

void write_bookshelf(std::ostream& nodes, std::ostream& nets,
                     const BookshelfDesign& design) {
  const Hypergraph& h = design.netlist.hypergraph;
  FHP_REQUIRE(design.netlist.vertex_names.size() == h.num_vertices() &&
                  design.netlist.edge_names.size() == h.num_edges() &&
                  design.is_terminal.size() == h.num_vertices(),
              "design names/markers must cover the netlist");

  long long terminals = 0;
  for (std::uint8_t t : design.is_terminal) terminals += t;
  nodes << "UCLA nodes 1.0\n\n";
  nodes << "NumNodes : " << h.num_vertices() << '\n';
  nodes << "NumTerminals : " << terminals << '\n';
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    nodes << "  " << design.netlist.vertex_names[v] << ' '
          << h.vertex_weight(v) << " 1";
    if (design.is_terminal[v]) nodes << " terminal";
    nodes << '\n';
  }

  nets << "UCLA nets 1.0\n\n";
  nets << "NumNets : " << h.num_edges() << '\n';
  nets << "NumPins : " << h.num_pins() << '\n';
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    nets << "NetDegree : " << h.edge_size(e) << ' '
         << design.netlist.edge_names[e] << '\n';
    for (VertexId v : h.pins(e)) {
      nets << "  " << design.netlist.vertex_names[v] << " B\n";
    }
  }
}

}  // namespace fhp

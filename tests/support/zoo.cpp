#include "support/zoo.hpp"

#include <utility>

#include "gen/circuit.hpp"
#include "gen/grid.hpp"
#include "gen/planted.hpp"
#include "gen/random_hypergraph.hpp"
#include "gen/structured.hpp"

namespace fhp::test {

Hypergraph with_random_weights(const Hypergraph& h, Rng& rng) {
  HypergraphBuilder b;
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    Weight w = 1;
    while (rng.next_bool(0.6)) ++w;
    b.add_vertex(w);
  }
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    b.add_edge(h.pins(e), 1 + static_cast<Weight>(rng.next_below(4)));
  }
  return std::move(b).build();
}

std::vector<std::pair<std::string, Hypergraph>> generator_zoo() {
  std::vector<std::pair<std::string, Hypergraph>> out;
  Rng rng(2024);
  const auto add = [&](const std::string& name, Hypergraph h) {
    Hypergraph weighted = with_random_weights(h, rng);
    out.emplace_back(name + "/unit", std::move(h));
    out.emplace_back(name + "/weighted", std::move(weighted));
  };
  for (const Technology tech : {Technology::kPcb, Technology::kGateArray,
                                Technology::kStandardCell}) {
    add("circuit-" + std::to_string(static_cast<int>(tech)),
        generate_circuit(table2_params(160, 260, tech), 7));
  }
  CircuitParams geometric = table2_params(220, 330, Technology::kStandardCell);
  geometric.weight_geometric_p = 0.4;
  out.emplace_back("circuit-geometric", generate_circuit(geometric, 11));
  GridParams grid;
  grid.rows = 9;
  grid.cols = 11;
  grid.segment_fraction = 0.3;
  add("grid", grid_circuit(grid, 5));
  PlantedParams planted;
  planted.num_vertices = 120;
  planted.num_edges = 220;
  planted.planted_cut = 4;
  planted.max_edge_size = 4;
  add("planted", planted_instance(planted, 9).hypergraph);
  RandomHypergraphParams random;
  random.num_vertices = 90;
  random.num_edges = 140;
  random.max_edge_size = 5;
  add("random", random_hypergraph(random, 13));
  add("adder", ripple_carry_adder(6));
  add("multiplier", array_multiplier(4));
  add("butterfly", butterfly_network(2, 3));
  add("htree", h_tree(4));
  return out;
}

}  // namespace fhp::test

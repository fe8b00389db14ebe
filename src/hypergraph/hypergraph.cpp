#include "hypergraph/hypergraph.hpp"

#include <algorithm>
#include <numeric>

namespace fhp {

Hypergraph Hypergraph::from_edges(
    VertexId num_vertices, const std::vector<std::vector<VertexId>>& edges) {
  HypergraphBuilder builder;
  builder.add_vertices(num_vertices);
  for (const auto& pins : edges) {
    builder.add_edge(std::span<const VertexId>(pins));
  }
  return std::move(builder).build();
}

bool Hypergraph::is_graph() const noexcept {
  for (EdgeId e = 0; e < num_edges(); ++e) {
    if (edge_size(e) != 2) return false;
  }
  return true;
}

void Hypergraph::validate() const {
  FHP_ASSERT(edge_offsets_.size() == static_cast<std::size_t>(num_edges()) + 1,
             "edge offset array size mismatch");
  FHP_ASSERT(
      vertex_offsets_.size() == static_cast<std::size_t>(num_vertices()) + 1,
      "vertex offset array size mismatch");
  FHP_ASSERT(edge_offsets_.front() == 0 && edge_offsets_.back() == num_pins(),
             "edge offsets must span the pin array");
  FHP_ASSERT(vertex_offsets_.front() == 0 &&
                 vertex_offsets_.back() == vertex_edges_.size(),
             "vertex offsets must span the incidence array");
  FHP_ASSERT(edge_pins_.size() == vertex_edges_.size(),
             "pin and incidence arrays must have equal length");
  FHP_ASSERT(vertex_weights_.size() == num_vertices(),
             "one weight per vertex");
  FHP_ASSERT(edge_weights_.size() == num_edges(), "one weight per edge");

  std::size_t pin_count = 0;
  for (EdgeId e = 0; e < num_edges(); ++e) {
    const auto ps = pins(e);
    pin_count += ps.size();
    FHP_ASSERT(std::is_sorted(ps.begin(), ps.end()), "pins must be sorted");
    FHP_ASSERT(std::adjacent_find(ps.begin(), ps.end()) == ps.end(),
               "pins must be distinct");
    for (VertexId v : ps) {
      FHP_ASSERT(v < num_vertices(), "pin references unknown vertex");
      const auto nets = nets_of(v);
      FHP_ASSERT(std::binary_search(nets.begin(), nets.end(), e),
                 "incidence arrays out of sync");
    }
  }
  FHP_ASSERT(pin_count == num_pins(), "pin count mismatch");

  Weight vw = 0;
  for (Weight w : vertex_weights_) vw += w;
  Weight ew = 0;
  for (Weight w : edge_weights_) ew += w;
  FHP_ASSERT(vw == total_vertex_weight_, "cached vertex weight total stale");
  FHP_ASSERT(ew == total_edge_weight_, "cached edge weight total stale");
}

VertexId HypergraphBuilder::add_vertex(Weight weight) {
  FHP_REQUIRE(weight >= 0, "vertex weight must be non-negative");
  vertex_weights_.push_back(weight);
  return static_cast<VertexId>(vertex_weights_.size() - 1);
}

VertexId HypergraphBuilder::add_vertices(VertexId count) {
  const auto first = static_cast<VertexId>(vertex_weights_.size());
  vertex_weights_.resize(vertex_weights_.size() + count, Weight{1});
  return first;
}

EdgeId HypergraphBuilder::add_edge(std::span<const VertexId> pins,
                                   Weight weight) {
  FHP_REQUIRE(weight >= 0, "edge weight must be non-negative");
  FHP_REQUIRE(!pins.empty() || allow_empty_edges_,
              "zero-pin net rejected (see allow_empty_edges())");
  const std::size_t start = edge_pins_.size();
  for (VertexId v : pins) {
    FHP_REQUIRE(v < vertex_weights_.size(),
                "edge pin references a vertex that was never added");
    edge_pins_.push_back(v);
  }
  // Sort + dedupe this edge's pins in place.
  const auto begin = edge_pins_.begin() + static_cast<std::ptrdiff_t>(start);
  std::sort(begin, edge_pins_.end());
  edge_pins_.erase(std::unique(begin, edge_pins_.end()), edge_pins_.end());
  edge_offsets_.push_back(edge_pins_.size());
  edge_weights_.push_back(weight);
  return static_cast<EdgeId>(edge_weights_.size() - 1);
}

EdgeId HypergraphBuilder::add_edge(std::initializer_list<VertexId> pins,
                                   Weight weight) {
  return add_edge(std::span<const VertexId>(pins.begin(), pins.size()),
                  weight);
}

void HypergraphBuilder::set_vertex_weight(VertexId v, Weight weight) {
  FHP_REQUIRE(v < vertex_weights_.size(), "unknown vertex");
  FHP_REQUIRE(weight >= 0, "vertex weight must be non-negative");
  vertex_weights_[v] = weight;
}

Hypergraph HypergraphBuilder::build() && {
  Hypergraph h;
  h.edge_offsets_ = std::move(edge_offsets_);
  h.edge_pins_ = std::move(edge_pins_);
  h.vertex_weights_ = std::move(vertex_weights_);
  h.edge_weights_ = std::move(edge_weights_);
  h.finalize_from_edge_csr();
  return h;
}

Hypergraph Hypergraph::from_csr(std::vector<std::size_t> edge_offsets,
                                std::vector<VertexId> edge_pins,
                                std::vector<Weight> vertex_weights,
                                std::vector<Weight> edge_weights) {
  FHP_REQUIRE(!edge_offsets.empty() && edge_offsets.front() == 0 &&
                  edge_offsets.back() == edge_pins.size(),
              "edge offsets must span the pin array");
  FHP_REQUIRE(edge_offsets.size() == edge_weights.size() + 1,
              "one weight per edge");
  const auto nv = vertex_weights.size();
#if !defined(NDEBUG)
  for (std::size_t e = 0; e + 1 < edge_offsets.size(); ++e) {
    FHP_DEBUG_ASSERT(edge_offsets[e] <= edge_offsets[e + 1],
                     "edge offsets must be non-decreasing");
    for (std::size_t i = edge_offsets[e]; i < edge_offsets[e + 1]; ++i) {
      FHP_DEBUG_ASSERT(edge_pins[i] < nv, "pin references unknown vertex");
      FHP_DEBUG_ASSERT(i == edge_offsets[e] || edge_pins[i - 1] < edge_pins[i],
                       "pins must be sorted and distinct");
    }
  }
#else
  (void)nv;
#endif
  Hypergraph h;
  h.edge_offsets_ = std::move(edge_offsets);
  h.edge_pins_ = std::move(edge_pins);
  h.vertex_weights_ = std::move(vertex_weights);
  h.edge_weights_ = std::move(edge_weights);
  h.finalize_from_edge_csr();
  return h;
}

namespace {

/// Sum of \p weights; throws PreconditionError if it leaves Weight's range
/// (every consumer of the totals, e.g. FM's balance window, relies on
/// side weights never exceeding them).
Weight checked_total(const std::vector<Weight>& weights, const char* what) {
  Weight total = 0;
  for (const Weight w : weights) {
    FHP_REQUIRE(!__builtin_add_overflow(total, w, &total), what);
  }
  return total;
}

}  // namespace

void Hypergraph::finalize_from_edge_csr() {
  const VertexId nv = static_cast<VertexId>(vertex_weights_.size());
  const EdgeId ne = static_cast<EdgeId>(edge_weights_.size());
  total_vertex_weight_ =
      checked_total(vertex_weights_, "total module weight overflows Weight");
  total_edge_weight_ =
      checked_total(edge_weights_, "total net weight overflows Weight");

  // Build the inverse incidence (vertex -> nets) by counting sort, which
  // also leaves each vertex's net list sorted because edges are scanned in
  // ascending id order.
  std::vector<std::size_t> counts(static_cast<std::size_t>(nv) + 1, 0);
  for (VertexId v : edge_pins_) ++counts[v + 1];
  std::partial_sum(counts.begin(), counts.end(), counts.begin());
  vertex_offsets_ = counts;
  vertex_edges_.resize(edge_pins_.size());
  std::vector<std::size_t> cursor(counts.begin(), counts.end() - 1);
  for (EdgeId e = 0; e < ne; ++e) {
    for (std::size_t i = edge_offsets_[e]; i < edge_offsets_[e + 1]; ++i) {
      vertex_edges_[cursor[edge_pins_[i]]++] = e;
    }
  }

  max_edge_size_ = 0;
  for (EdgeId e = 0; e < ne; ++e) {
    max_edge_size_ = std::max(max_edge_size_, edge_size(e));
  }
  max_degree_ = 0;
  for (VertexId v = 0; v < nv; ++v) {
    max_degree_ = std::max(max_degree_, degree(v));
  }
}

namespace {

/// splitmix64 finalizer — the standard full-avalanche 64-bit mixer.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One streaming hash lane: absorb whole 64-bit words.
struct HashLane {
  std::uint64_t state;
  constexpr void absorb(std::uint64_t word) noexcept {
    state = mix64(state ^ word);
  }
};

}  // namespace

Hypergraph::Fingerprint Hypergraph::fingerprint() const noexcept {
  // Two lanes with distinct seeds: a collision must fool two independent
  // mixing chains at once. Every value is widened to uint64 before being
  // absorbed so the fingerprint is identical across FHP_INDEX_64 builds.
  HashLane a{0x8bad'f00d'1234'5678ULL};
  HashLane b{0xc0ff'ee00'9abc'def0ULL};
  const auto absorb = [&](std::uint64_t word) {
    a.absorb(word);
    b.absorb(word + 0x6a09'e667'f3bc'c909ULL);
  };
  absorb(static_cast<std::uint64_t>(num_vertices()));
  absorb(static_cast<std::uint64_t>(num_edges()));
  // The edge CSR determines the inverse incidence, so hashing offsets and
  // pins covers the full structure; weights carry the rest of the content.
  for (const std::size_t offset : edge_offsets_) {
    absorb(static_cast<std::uint64_t>(offset));
  }
  for (const VertexId pin : edge_pins_) {
    absorb(static_cast<std::uint64_t>(pin));
  }
  for (const Weight w : vertex_weights_) {
    absorb(static_cast<std::uint64_t>(w));
  }
  for (const Weight w : edge_weights_) {
    absorb(static_cast<std::uint64_t>(w));
  }
  return Fingerprint{a.state, b.state};
}

}  // namespace fhp

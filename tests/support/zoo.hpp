/// \file zoo.hpp
/// Test-only instance set shared by the differential suites: every
/// generator family at a few small sizes, each with its native (mostly
/// unit) weights and with random weights.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "hypergraph/hypergraph.hpp"
#include "util/rng.hpp"

namespace fhp::test {

/// \p h with geometric module weights (mean ~3) and small random net
/// weights drawn from \p rng.
[[nodiscard]] Hypergraph with_random_weights(const Hypergraph& h, Rng& rng);

/// The generator zoo: name/instance pairs, "<family>/unit" and
/// "<family>/weighted" for each family (plus one geometric-weight circuit).
[[nodiscard]] std::vector<std::pair<std::string, Hypergraph>> generator_zoo();

}  // namespace fhp::test

/// \file legacy_fm.hpp
/// Test-only oracle: the Fiduccia–Mattheyses engine as it was before the
/// shared gain engine (partition/gain_engine.hpp) — per-side lazy heaps
/// of (gain, id) snapshots, a stash that pops and re-pushes every
/// valid-but-illegal entry on every pick, and a from-scratch cell-gain
/// recomputation for every pin of every touched net. It emits the same
/// fm/* counters as the library engine, and every library caller of FM
/// has a legacy twin here, so tests can demand bit-identical partitions,
/// metrics, pass counts and counters.
#pragma once

#include <cstdint>
#include <vector>

#include "baselines/fm.hpp"
#include "multilevel/engine.hpp"
#include "multilevel/refine.hpp"

namespace fhp::test {

/// fiduccia_mattheyses() on the legacy heap-and-stash engine.
[[nodiscard]] BaselineResult legacy_fiduccia_mattheyses(
    const Hypergraph& h, const FmOptions& options = {});

/// ml::FmRefiner with every FM call routed to the legacy engine.
class LegacyFmRefiner final : public ml::Refiner {
 public:
  explicit LegacyFmRefiner(const ml::FmRefinerOptions& options = {})
      : options_(options) {}

  [[nodiscard]] Weight refine(const Hypergraph& h,
                              std::vector<std::uint8_t>& sides,
                              std::uint64_t seed) override;
  [[nodiscard]] const char* name() const noexcept override { return "fm"; }

 private:
  ml::FmRefinerOptions options_;
};

/// ml::partition_auto() with every FM call routed to the legacy engine
/// (same routing, same flow refiner, legacy FM in place of FmRefiner).
[[nodiscard]] ml::EngineResult legacy_partition_auto(
    const Hypergraph& h, const ml::PartitionPlan& plan = {});

}  // namespace fhp::test

// Shared pieces of the combined performance + power model (paper §5).
//
// Power-aware assignment needs the power of a *tentative* mapping
// before any HPC values exist. §5 decomposes process power into
//
//   P_process = P_idle + (1/SPI)·(c1·L1RPI + c2·L2RPI + c4·BRPI
//             + c5·FPPI) + (1/SPI)·c3·L2RPI·L2MPR
//
// where the per-instruction rates are fixed process properties from
// profiling and SPI / L2MPR come from the performance model under the
// tentative co-schedule. This header holds the mapping type and that
// decomposition; the engine prices mappings with them
// (repro/engine/model_engine.hpp), including the paper's Eq. 10
// combination average and the incremental Fig. 1 form
// (repro/engine/assignment.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "repro/common/units.hpp"
#include "repro/core/perf_model.hpp"
#include "repro/core/power_model.hpp"
#include "repro/core/profiler.hpp"
#include "repro/sim/machine.hpp"

namespace repro::core {

/// A process-to-core mapping: per_core[c] lists indices into a profile
/// array; several entries on one core mean round-robin time sharing.
struct Assignment {
  std::vector<std::vector<std::size_t>> per_core;

  static Assignment empty(std::uint32_t cores) {
    Assignment a;
    a.per_core.resize(cores);
    return a;
  }
  std::size_t process_count() const;
  void validate(std::uint32_t cores, std::size_t profile_count) const;
};

/// §5 decomposition of one process's dynamic (above-idle) core power at
/// a predicted operating point: P1 covers the contention-invariant
/// per-instruction events, P2 the L2 misses, both scaled by 1/SPI.
Watts process_dynamic_power(const PowerModel& model,
                            const hpc::PerInstructionRates& pf, Spi spi,
                            Mpa l2mpr);

}  // namespace repro::core

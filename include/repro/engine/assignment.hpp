// Assignment pricing on the ModelEngine (paper §5, Fig. 1, Eq. 10/11).
//
// Power-aware assignment needs the power of a *tentative* process-to-
// core mapping before any HPC values exist. Everything here prices
// through the engine's one pricing loop (ModelEngine::predict_each,
// directly or via predict_batch); nothing re-implements the
// equilibrium solve or the §5 power assembly.
//
//  - placements() enumerates every process-to-core mapping; the
//    exhaustive search and Governor::plan both walk it.
//  - optimize_assignment() is the exhaustive min-power / min-J-per-
//    instruction search, priced with the engine's own contention
//    semantics, so its figures agree with predict() on the chosen
//    mapping.
//  - estimate_eq10() is the paper's combination average: a die whose
//    cores time-share runs one process per busy core at a time, and
//    every such combination is equally likely under equal timeslices.
//    Each combination is one engine query with at most one process per
//    core — where the engine's semantics coincide with the paper's —
//    and the die's power and throughput are their plain average.
//    Processes that only time-share a core never contend in this
//    model; predict() prices them in one CPU-share-weighted equilibrium
//    instead (see EXPERIMENTS.md on Table 4).
//  - estimate_after_assign() is the incremental Fig. 1 form: it prices
//    only the combinations that include the newcomer and reuses the
//    current per-core powers for the rest.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "repro/common/units.hpp"
#include "repro/core/combined.hpp"
#include "repro/engine/model_engine.hpp"

namespace repro::engine {

/// Every placement of `processes` on `cores` cores (cores^k mappings;
/// cores may time-share), enumerated as a base-`cores` odometer over
/// the process list with process 0 as the slowest digit — deterministic,
/// so a search over it is replayable.
std::vector<core::Assignment> placements(
    std::span<const ProcessHandle> processes, std::uint32_t cores);

enum class AssignmentObjective {
  kPower,                 // minimize mean processor watts
  kEnergyPerInstruction,  // minimize predicted J/instruction
};

struct AssignmentSearchResult {
  core::Assignment assignment;
  SystemPrediction prediction;   // predict() at `assignment`
  double objective_value = 0.0;  // value of the chosen objective
  std::size_t evaluated = 0;     // mappings priced
};

/// Exhaustive minimum-objective placement of `processes` (engine
/// handles; a handle may repeat), priced against one snapshot to one
/// objective value per placement; the winner alone is then predicted
/// in full. Ties go to the earliest placement. Complexity cores^k —
/// intended for the paper-scale k ≤ ~8.
AssignmentSearchResult optimize_assignment(
    const ModelEngine& engine, std::span<const ProcessHandle> processes,
    AssignmentObjective objective = AssignmentObjective::kPower);

/// Eq. 10/11 price of an assignment: mean package power and
/// share-weighted throughput.
struct Eq10Estimate {
  Watts total_power = 0.0;
  double throughput_ips = 0.0;

  /// Joules per instruction; infinite for an idle machine.
  double energy_per_instruction() const {
    return throughput_ips > 0.0 ? total_power / throughput_ips
                                : std::numeric_limits<double>::infinity();
  }
};

/// The paper's §5 estimate from profiles alone (Table 4's validation
/// mode): every die's combinations priced in one predict_batch on
/// `snapshot`, which must carry a power model.
Eq10Estimate estimate_eq10(const ModelEngine& engine,
                           const EngineSnapshot& snapshot,
                           const core::Assignment& assignment);

/// Fig. 1 / Eq. 11: package power after tentatively appending
/// `new_process` to `target_core`'s run queue. Combinations that
/// include the newcomer are priced on `snapshot` (the Eq. 10 average
/// of the die with the target queue replaced by the newcomer alone);
/// the others reuse `current_core_power` — model-derived from live HPC
/// rates, one entry per core, idle cores at idle-core power.
Watts estimate_after_assign(const ModelEngine& engine,
                            const EngineSnapshot& snapshot,
                            const core::Assignment& current,
                            ProcessHandle new_process, CoreId target_core,
                            std::span<const Watts> current_core_power);

}  // namespace repro::engine

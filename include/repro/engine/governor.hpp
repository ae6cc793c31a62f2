// Power-capping governor — the closed loop over the combined model.
//
// The paper's headline application (§1, §7) prices candidate
// co-schedules before committing to any of them; DVFS adds a second
// knob. Given a package power cap, the Governor searches the joint
// (assignment, per-core frequency) space with the frequency-
// parameterized combined model (Eq. 11 + the Eq. 3 rescaling in
// CoScheduleQuery::core_frequency) and picks the candidate that
// maximizes predicted throughput subject to predicted package power
// staying under the cap (with a planning margin for model error).
//
// The search is exhaustive — every assignment × every per-core DVFS
// level tuple — whenever the candidate count fits the configured
// budget, and the enumeration order is deterministic, so a plan() is
// replayable and, at the paper's k ≤ 4 scale, *is* the oracle search
// bench_governor gates against. Over budget it degrades to uniform-
// frequency tuples plus a greedy per-core step-up refinement, and says
// so in the decision.
#pragma once

#include <span>
#include <vector>

#include "repro/common/units.hpp"
#include "repro/engine/model_engine.hpp"

namespace repro::engine {

struct GovernorOptions {
  /// Package power budget the chosen operating point must respect.
  Watts power_cap = 0.0;
  /// Plan against cap·(1 − margin): headroom for model error so the
  /// *measured* power stays under the cap, not just the predicted.
  double margin = 0.02;
  /// Exhaustive-search budget (priced candidates per plan). Above it
  /// the governor switches to uniform-frequency tuples + greedy
  /// refinement and reports exhaustive = false.
  std::size_t max_candidates = 65536;
};

/// One governor decision: the chosen operating point and how it was
/// found. `feasible` is false when even the slowest candidate exceeds
/// the planning cap — the returned point is then the power-minimal
/// one (best effort), and the caller decides whether to shed load.
struct GovernorDecision {
  core::Assignment assignment;
  std::vector<Hertz> core_frequency;  // one clock per core
  SystemPrediction prediction;        // at the chosen point
  bool feasible = false;
  bool exhaustive = true;  // full candidate set was priced
  std::size_t evaluated = 0;
};

class Governor {
 public:
  /// The engine must carry a power model (the cap is a power
  /// constraint) and a machine with at least one DVFS level or a
  /// default frequency to stand on.
  Governor(const ModelEngine& engine, GovernorOptions options);

  /// Joint search: place `processes` (engine handles) on cores and
  /// clock the cores, maximizing predicted throughput under the cap.
  /// Every placement (engine/assignment.hpp) is a candidate while their
  /// count fits max_candidates; beyond it only the balanced round-robin
  /// placement is.
  GovernorDecision plan(std::span<const ProcessHandle> processes) const;

  /// Frequency-only search for a fixed assignment (the re-plan path
  /// when the cap or the profiles change but migration is off the
  /// table).
  GovernorDecision plan(const core::Assignment& assignment) const;

  const GovernorOptions& options() const { return options_; }
  /// The DVFS levels the search enumerates (machine dvfs_levels, or
  /// just the default frequency when none are advertised).
  const std::vector<Hertz>& levels() const { return levels_; }

 private:
  GovernorDecision choose(std::vector<core::Assignment> assignments) const;

  const ModelEngine& engine_;
  GovernorOptions options_;
  std::vector<Hertz> levels_;
};

}  // namespace repro::engine

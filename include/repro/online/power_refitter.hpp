// PowerRefitter — on-line revision of the Eq. 9 power model.
//
// The performance side of the pipeline has been fully on-line since
// PR 2; the power model stayed frozen at calibration time. This class
// closes the loop (DESIGN §5.5): every sanitized window that carries
// ground truth — a finite, positive measured clamp power — feeds its
// summed per-core HPC rates and that measurement into a windowed
// IncrementalMvlr. Every refit_interval ground-truth windows it
// re-solves the normal equations and proposes a candidate PowerModel,
// which must pass a quality gate before anyone installs it:
//
//   1. conditioning — a rank-deficient window (idle machine, constant
//      rates) is refused outright;
//   2. physical plausibility — the fitted intercept is the package
//      idle power and must be positive;
//   3. fit quality — R² at least min_r2;
//   4. no regression — the candidate's mean relative error over the
//      retained window must not exceed max_error_ratio × the
//      incumbent model's error over the *same* rows.
//
// The refitter itself is passive and unsynchronized: ShardedPipeline
// owns one under its coordinator mutex and forwards accepted candidates
// to ModelEngine::try_apply(Revision::power_model(...))
// (validate-before-mutate, degrades to last-good exactly like the
// profile path).
//
// Frequency transparency (ISSUE 10): Eq. 9 regresses measured power on
// per-second event *rates*, and a DVFS step changes power and rates
// together — the regressors already carry the clock. Unlike the Eq. 3
// performance fit, nothing here needs rescaling or a recorded fit
// frequency: windows from different DVFS levels are just more
// operating points on the same plane (they *improve* conditioning),
// and a frequency step must not, and does not, trigger a model reset.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "repro/common/units.hpp"
#include "repro/core/power_model.hpp"
#include "repro/math/incremental_mvlr.hpp"
#include "repro/sim/system.hpp"

namespace repro::online {

struct PowerRefitOptions {
  /// Off by default: the no-refit pipeline is structurally identical
  /// to the pre-refit one (bit-identical predictions, a bench gate).
  bool enabled = false;
  /// Ground-truth windows retained by the incremental fitter; older
  /// ones are evicted (and downdated) so the fit tracks drift.
  std::size_t window = 256;
  /// Propose a candidate every this many ground-truth windows.
  std::size_t refit_interval = 32;
  /// No candidate before this many ground-truth windows have arrived.
  std::size_t min_fit_windows = 48;
  /// Quality gate: minimum R² of the candidate fit.
  double min_r2 = 0.5;
  /// Quality gate: candidate window error must be at most this times
  /// the incumbent's error over the same rows (1.0 = must not regress).
  double max_error_ratio = 1.0;
  /// Denominator floor (watts) for the relative-error comparisons, so
  /// near-zero measured power can never produce inf/NaN.
  Watts power_floor = 1e-3;
};

/// One refit proposal and the gate's verdict on it.
struct PowerRefitAttempt {
  Seconds time = 0.0;            // window that triggered the attempt
  bool accepted = false;
  std::string reason;            // rejection cause; empty when accepted
  bool rank_deficient = false;   // conditioning guard fired
  math::Mvlr::Fit fit;           // meaningless when rank_deficient
  double candidate_err_pct = 0.0;  // candidate MAPE over the window
  double incumbent_err_pct = 0.0;  // incumbent MAPE over the same rows
  std::size_t window_samples = 0;  // rows behind the fit
  /// The validated candidate, present only when accepted.
  std::optional<core::PowerModel> model;
};

class PowerRefitter {
 public:
  PowerRefitter(std::uint32_t cores, PowerRefitOptions options = {});

  /// Absorb one sanitized window. Windows without usable ground truth
  /// (non-finite or non-positive measured power, non-finite rates) are
  /// skipped. Returns a PowerRefitAttempt when this window triggered a
  /// refit proposal — accepted or not — and nullopt otherwise.
  std::optional<PowerRefitAttempt> push(const sim::Sample& sample,
                                        const core::PowerModel& incumbent);

  /// Ground-truth windows currently retained.
  std::size_t window_samples() const { return fitter_.size(); }
  /// Ground-truth windows skipped for lacking usable measurements.
  std::uint64_t skipped() const { return skipped_; }

 private:
  double window_error_pct(Watts idle, std::span<const double> c) const;

  std::uint32_t cores_;
  PowerRefitOptions options_;
  math::IncrementalMvlr fitter_;
  std::size_t since_attempt_ = 0;
  std::uint64_t skipped_ = 0;
};

}  // namespace repro::online

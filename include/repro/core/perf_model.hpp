// The performance model: feature vectors and the equilibrium solver
// (paper §3.1–§3.3, Eq. 1, 3, 6, 7).
//
// A process's feature vector is (reuse-distance histogram, API, α, β):
// everything the model needs to predict its behaviour under any
// co-schedule on a shared cache. Given k feature vectors sharing an
// A-way cache, the steady state satisfies, for a common horizon τ,
//
//     G_i⁻¹(S_i) = APS_i(S_i)·τ,   APS_i(S) = API_i / (α_i·MPA_i(S)+β_i)
//     Σ S_i = A                                            (Eq. 1, 6)
//
// equivalent to the paper's Eq. 7 after eliminating τ. Two solvers are
// provided: the paper's Newton–Raphson on (Eq. 1 + Eq. 7), and a
// globally robust nested bisection on the τ-parametrization (outer
// bisection drives Σ S_i(τ) → A; each S_i(τ) is a bracketed scalar
// root). They agree wherever Newton converges, but Newton can stall on
// nearly-flat MPA curves. So a bare solve defaults to bisection, while
// engine::ModelEngine runs Newton and re-solves a stalled die with
// bisection.
//
// The solver reads each process through a SolverInput: a borrowed
// histogram plus API, α and β at the clock being priced. The engine
// builds those per query without copying a FeatureVector;
// solve(std::vector<FeatureVector>) is the adapter for callers that
// hold whole feature vectors, and gives bit-identical results.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "repro/core/fill_model.hpp"
#include "repro/core/reuse_histogram.hpp"
#include "repro/math/roots.hpp"

namespace repro::core {

/// The §3.4 feature vector, extracted by the stressmark profiler.
///
/// Frequency honesty (Eq. 3): α and β carry a 1/f factor —
/// α = API·(mem_cycles − l2_cycles)/f, β = (base_cpi +
/// API·l2_hit_cycles)/f — so a feature vector is only valid at the
/// clock it was fitted at. `fit_frequency` records that clock; the
/// frequency-normalized (cycles-per-access) form is exposed through
/// alpha_cycles()/beta_cycles(), and at_frequency()/spi_at(mpa, hz)
/// rescale exactly (memory latency is fixed in core cycles in this
/// simulator, so SPI ∝ 1/f holds to the bit, not approximately).
/// fit_frequency == 0 marks a legacy vector of unknown clock: it
/// predicts as before but refuses explicit rescaling.
struct FeatureVector {
  std::string name;
  ReuseHistogram histogram{std::vector<double>{1.0}, 0.0};
  double api = 0.0;    // L2 accesses per instruction
  double alpha = 0.0;  // SPI = alpha·MPA + beta (Eq. 3), seconds form
  double beta = 0.0;
  Hertz fit_frequency = 0.0;  // clock α/β were fitted at; 0 = unknown

  Spi spi_at(Mpa mpa) const { return alpha * mpa + beta; }
  /// Eq. 3 evaluated at another clock: SPI(mpa, hz) =
  /// SPI(mpa)·fit_frequency/hz. Requires a recorded fit frequency.
  Spi spi_at(Mpa mpa, Hertz hz) const;
  /// Frequency-normalized α/β: cycles per access / cycles per
  /// instruction, the frequency-independent form. Require a recorded
  /// fit frequency.
  double alpha_cycles() const;
  double beta_cycles() const;
  /// This vector rescaled to clock `hz` (α/β scale by
  /// fit_frequency/hz; the histogram and API are frequency-free).
  /// Exact no-op when hz equals the fit frequency, so rescaling a
  /// profile to its own clock is bit-identical to not touching it.
  FeatureVector at_frequency(Hertz hz) const;
  void validate() const;
};

/// One process as the solvers read it: a borrowed reuse histogram and
/// the Eq. 3 law at the clock being priced. Two pointers' worth of
/// setup per process instead of a FeatureVector copy; valid only while
/// the histogram it points at lives.
struct SolverInput {
  const ReuseHistogram* histogram = nullptr;
  double api = 0.0;
  double alpha = 0.0;
  double beta = 0.0;

  /// `fv` as it stands: the inputs of an unscaled solve.
  static SolverInput of(const FeatureVector& fv);
  /// `fv` priced at `clock`: α and β scale by fit_frequency/clock, by
  /// the same expression as fv.at_frequency(clock). At the fit clock,
  /// or for a legacy vector (fit_frequency 0), they pass through as
  /// they are.
  static SolverInput at_clock(const FeatureVector& fv, Hertz clock);

  Spi spi_at(Mpa mpa) const { return alpha * mpa + beta; }
  /// The SPI-law checks of FeatureVector::validate, on these values.
  void validate() const;
};

/// Steady-state prediction for one process in a co-schedule.
struct ProcessPrediction {
  Ways effective_size = 0.0;  // S_i
  Mpa mpa = 0.0;              // MPA_i(S_i)
  Spi spi = 0.0;              // α_i·MPA_i + β_i
  double aps = 0.0;           // accesses per second = API/SPI
};

struct EquilibriumOptions {
  double min_ways = 1e-3;    // lower clamp on any S_i
  double tolerance = 1e-9;   // on Σ S_i − A
  double mpa_floor = 1e-6;   // floor inside G⁻¹ integrals
};

/// Per-call diagnostics written by EquilibriumSolver::solve when the
/// caller passes a SolveStats out-pointer. `iterations` counts outer
/// bisection steps or Newton steps — the quantity the warm-start path
/// is designed to shrink.
struct SolveStats {
  int iterations = 0;
};

/// Per-call options for EquilibriumSolver::solve — the single entry
/// point that subsumes the historical solve / solve_weighted /
/// solve_newton triple. The per-process spans are borrowed: the
/// caller's storage must outlive the call.
struct SolveOptions {
  enum class Method {
    /// Globally robust nested bisection on the τ-parametrization: never
    /// fails on well-posed instances, at tens of outer steps per solve.
    /// The default here, and the engine's fallback.
    kBisection,
    /// The paper's damped Newton–Raphson on Eq. 1 + Eq. 7: a few steps
    /// cold, 1–2 from a close warm start. Throws if it fails to
    /// converge. ModelEngine's default (EngineOptions::method).
    kNewton,
  };
  Method method = Method::kBisection;

  /// CPU share per process, each ∈ (0, 1]; empty = all ones. A process
  /// time-sharing a core with k−1 others only fills the cache 1/k of
  /// the time, but its lines stay resident and contend continuously,
  /// so only the fill rate is scaled; reported SPI/MPA remain
  /// per-running-time.
  std::span<const double> cpu_share = {};

  /// Optional precomputed fill curves G⁻¹, one pointer per process,
  /// each exactly as built by fill_curve(fv.histogram, ways,
  /// equilibrium.mpa_floor). Lets callers (the ModelEngine) amortize
  /// curve construction across many solves without copying; results
  /// are bit-identical either way because fill_curve is deterministic.
  /// Empty = compute internally.
  std::span<const math::PiecewiseLinear* const> fill = {};

  /// Optional warm start: one S_i seed per process, typically the
  /// previous equilibrium before a small profile delta (the on-line
  /// pipeline's steady state). Newton starts from these (projected
  /// into the feasible region) instead of the uniform A/k split and
  /// converges in 1–2 iterations when the seed is close; bisection
  /// uses the implied horizon τ to tighten its initial bracket. Empty
  /// = cold start.
  std::span<const double> warm_start = {};

  /// Optional out-parameter for solver diagnostics (iteration counts).
  SolveStats* stats = nullptr;
};

class EquilibriumSolver {
 public:
  /// `ways` is the shared cache associativity A.
  EquilibriumSolver(std::uint32_t ways, EquilibriumOptions options = {});

  /// Predict the steady state of `processes` sharing the cache, one
  /// process per cache-sharing core (k = processes.size() >= 1).
  /// k = 1 returns the full-cache operating point. See SolveOptions
  /// for method selection, CPU-share weighting, and memoized curves.
  std::vector<ProcessPrediction> solve(
      std::span<const SolverInput> processes,
      const SolveOptions& options = {}) const;

  /// The same solve over whole feature vectors (validated with their
  /// names, then read through SolverInput::of).
  std::vector<ProcessPrediction> solve(
      const std::vector<FeatureVector>& processes,
      const SolveOptions& options = {}) const;

  std::uint32_t ways() const { return ways_; }

 private:
  std::vector<ProcessPrediction> solve_bisection(
      std::span<const SolverInput> processes,
      std::span<const double> cpu_share,
      std::span<const math::PiecewiseLinear* const> fill,
      std::span<const double> warm_start, SolveStats* stats) const;
  std::vector<ProcessPrediction> solve_newton_impl(
      std::span<const SolverInput> processes,
      std::span<const double> cpu_share,
      std::span<const math::PiecewiseLinear* const> fill,
      std::span<const double> warm_start, SolveStats* stats) const;
  ProcessPrediction predict_at(const SolverInput& in, Ways s) const;

  std::uint32_t ways_;
  EquilibriumOptions options_;
};

}  // namespace repro::core

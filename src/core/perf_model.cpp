#include "repro/core/perf_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "repro/common/ensure.hpp"

namespace repro::core {

void FeatureVector::validate() const {
  // Carry the process identity: a bad histogram or SPI law otherwise
  // only surfaces deep inside a fill-curve integral with no hint of
  // which of the co-scheduled processes is broken. Built only when a
  // check fails: validate() runs for every process of every solve.
  const auto who = [this] {
    return name.empty() ? std::string("feature vector")
                        : "process '" + name + "'";
  };
  REPRO_ENSURE(std::isfinite(api) && std::isfinite(alpha) &&
                   std::isfinite(beta),
               who() + ": API/alpha/beta must be finite");
  REPRO_ENSURE(api > 0.0, who() + ": API must be positive");
  REPRO_ENSURE(beta > 0.0, who() + ": beta (zero-miss SPI) must be positive");
  REPRO_ENSURE(alpha > -beta,
               who() + ": SPI law must stay positive on [0, 1]");
  REPRO_ENSURE(std::isfinite(fit_frequency) && fit_frequency >= 0.0,
               who() + ": fit frequency must be finite and nonnegative");
}

Spi FeatureVector::spi_at(Mpa mpa, Hertz hz) const {
  REPRO_ENSURE(fit_frequency > 0.0,
               "spi_at(mpa, hz) needs a recorded fit frequency");
  REPRO_ENSURE(hz > 0.0, "target frequency must be positive");
  return spi_at(mpa) * (fit_frequency / hz);
}

double FeatureVector::alpha_cycles() const {
  REPRO_ENSURE(fit_frequency > 0.0,
               "alpha_cycles needs a recorded fit frequency");
  return alpha * fit_frequency;
}

double FeatureVector::beta_cycles() const {
  REPRO_ENSURE(fit_frequency > 0.0,
               "beta_cycles needs a recorded fit frequency");
  return beta * fit_frequency;
}

FeatureVector FeatureVector::at_frequency(Hertz hz) const {
  REPRO_ENSURE(hz > 0.0, "target frequency must be positive");
  if (hz == fit_frequency) return *this;  // exact: no scale, no drift
  REPRO_ENSURE(fit_frequency > 0.0,
               "cannot rescale a feature vector of unknown fit frequency");
  FeatureVector out = *this;
  const double scale = fit_frequency / hz;
  out.alpha = alpha * scale;
  out.beta = beta * scale;
  out.fit_frequency = hz;
  return out;
}

SolverInput SolverInput::of(const FeatureVector& fv) {
  return {&fv.histogram, fv.api, fv.alpha, fv.beta};
}

SolverInput SolverInput::at_clock(const FeatureVector& fv, Hertz clock) {
  SolverInput in = of(fv);
  if (fv.fit_frequency > 0.0 && clock != fv.fit_frequency) {
    REPRO_ENSURE(clock > 0.0, "target frequency must be positive");
    const double scale = fv.fit_frequency / clock;
    in.alpha = fv.alpha * scale;
    in.beta = fv.beta * scale;
  }
  return in;
}

void SolverInput::validate() const {
  REPRO_ENSURE(histogram != nullptr, "solver input needs a histogram");
  REPRO_ENSURE(std::isfinite(api) && std::isfinite(alpha) &&
                   std::isfinite(beta),
               "API/alpha/beta must be finite");
  REPRO_ENSURE(api > 0.0, "API must be positive");
  REPRO_ENSURE(beta > 0.0, "beta (zero-miss SPI) must be positive");
  REPRO_ENSURE(alpha > -beta, "SPI law must stay positive on [0, 1]");
}

EquilibriumSolver::EquilibriumSolver(std::uint32_t ways,
                                     EquilibriumOptions options)
    : ways_(ways), options_(options) {
  REPRO_ENSURE(ways_ > 0, "cache needs ways");
  REPRO_ENSURE(options_.min_ways > 0.0 &&
                   options_.min_ways < static_cast<double>(ways_),
               "bad min_ways");
}

ProcessPrediction EquilibriumSolver::predict_at(const SolverInput& in,
                                                Ways s) const {
  ProcessPrediction p;
  p.effective_size = std::clamp(s, 0.0, static_cast<double>(ways_));
  p.mpa = in.histogram->mpa(p.effective_size);
  p.spi = in.spi_at(p.mpa);
  REPRO_ENSURE(p.spi > 0.0, "non-positive predicted SPI");
  p.aps = in.api / p.spi;
  return p;
}

std::vector<ProcessPrediction> EquilibriumSolver::solve(
    const std::vector<FeatureVector>& processes,
    const SolveOptions& options) const {
  std::vector<SolverInput> inputs;
  inputs.reserve(processes.size());
  for (const FeatureVector& fv : processes) {
    fv.validate();
    inputs.push_back(SolverInput::of(fv));
  }
  return solve(std::span<const SolverInput>(inputs), options);
}

std::vector<ProcessPrediction> EquilibriumSolver::solve(
    std::span<const SolverInput> processes,
    const SolveOptions& options) const {
  const std::size_t k = processes.size();
  REPRO_ENSURE(k >= 1, "need at least one process");
  std::vector<double> unit_shares;
  std::span<const double> cpu_share = options.cpu_share;
  if (cpu_share.empty()) {
    unit_shares.assign(k, 1.0);
    cpu_share = unit_shares;
  }
  REPRO_ENSURE(cpu_share.size() == k, "one share per process");
  for (double w : cpu_share)
    REPRO_ENSURE(w > 0.0 && w <= 1.0, "shares must be in (0, 1]");
  for (const SolverInput& in : processes) in.validate();
  if (!options.fill.empty())
    REPRO_ENSURE(options.fill.size() == k, "one fill curve per process");
  std::span<const double> warm_start = options.warm_start;
  if (!warm_start.empty()) {
    REPRO_ENSURE(warm_start.size() == k, "one warm-start seed per process");
    // A non-finite seed would poison the τ bracket / Newton start
    // (clamp(NaN) is NaN); a warm start is only ever an optimization,
    // so degrade to a cold solve instead of failing the query.
    for (double s : warm_start)
      if (!std::isfinite(s)) {
        warm_start = {};
        break;
      }
  }
  if (options.stats != nullptr) *options.stats = SolveStats{};

  if (k == 1) return {predict_at(processes[0], static_cast<double>(ways_))};

  // Materialize curves only when the caller did not memoize them.
  std::vector<math::PiecewiseLinear> own_fill;
  std::vector<const math::PiecewiseLinear*> own_ptrs;
  std::span<const math::PiecewiseLinear* const> fill = options.fill;
  if (fill.empty()) {
    own_fill.reserve(k);
    own_ptrs.reserve(k);
    for (const SolverInput& in : processes) {
      own_fill.push_back(
          fill_curve(*in.histogram, ways_, options_.mpa_floor));
      own_ptrs.push_back(&own_fill.back());
    }
    fill = own_ptrs;
  }

  return options.method == SolveOptions::Method::kNewton
             ? solve_newton_impl(processes, cpu_share, fill, warm_start,
                                 options.stats)
             : solve_bisection(processes, cpu_share, fill, warm_start,
                               options.stats);
}

std::vector<ProcessPrediction> EquilibriumSolver::solve_bisection(
    std::span<const SolverInput> processes,
    std::span<const double> cpu_share,
    std::span<const math::PiecewiseLinear* const> fill,
    std::span<const double> warm_start, SolveStats* stats) const {
  const std::size_t k = processes.size();
  const double a = static_cast<double>(ways_);
  REPRO_ENSURE(options_.min_ways * static_cast<double>(k) < a,
               "too many processes for the associativity");

  // Share-weighted APS_i at effective size S (Eq. 6 right-hand side):
  // a time-shared process issues accesses only while scheduled, so its
  // fill rate over wall time scales by its CPU share.
  auto aps_at = [&](std::size_t i, double s) {
    const Mpa mpa = processes[i].histogram->mpa(s);
    return cpu_share[i] * processes[i].api / processes[i].spi_at(mpa);
  };

  // S_i(τ): the unique bracketed root of g_i(S) = APS_i(S)·τ in
  // [min_ways, A], saturating at either end.
  auto size_at = [&](std::size_t i, double tau) {
    auto h = [&](double s) { return (*fill[i])(s) - tau * aps_at(i, s); };
    const double lo = options_.min_ways;
    if (h(lo) >= 0.0) return lo;   // even the floor fills slower than τ
    if (h(a) <= 0.0) return a;     // still filling at full associativity
    return math::solve_bracketed(h, lo, a, 1e-10);
  };

  auto excess = [&](double tau) {
    double sum = 0.0;
    for (std::size_t i = 0; i < k; ++i) sum += size_at(i, tau);
    return sum - a;
  };

  // Bracket the horizon τ: excess(0) = k·min − A < 0; for large τ all
  // processes saturate and excess → (k−1)·A > 0. A warm start implies
  // a horizon estimate τ̂ = mean_i G_i⁻¹(Ŝ_i)/APS_i(Ŝ_i); seeding the
  // bracket there skips the geometric search from 1 ns.
  int iterations = 0;
  double tau_lo = 0.0;
  double tau_hi = 1e-9;
  if (!warm_start.empty()) {
    double tau_sum = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      const double s = std::clamp(warm_start[i], options_.min_ways, a);
      tau_sum += (*fill[i])(s) / std::max(aps_at(i, s), 1e-300);
    }
    tau_hi = std::max(tau_sum / static_cast<double>(k), 1e-12);
  }
  int guard = 0;
  while (excess(tau_hi) < 0.0) {
    tau_lo = tau_hi;
    tau_hi *= 4.0;
    ++iterations;
    REPRO_ENSURE(++guard < 200, "equilibrium horizon failed to bracket");
  }
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (tau_lo + tau_hi);
    if (excess(mid) < 0.0)
      tau_lo = mid;
    else
      tau_hi = mid;
    ++iterations;
    if (std::fabs(excess(0.5 * (tau_lo + tau_hi))) < options_.tolerance)
      break;
  }
  const double tau = 0.5 * (tau_lo + tau_hi);
  if (stats != nullptr) stats->iterations = iterations;

  // Renormalize the solution onto the Σ S_i = A simplex (the bisection
  // leaves a residual below tolerance; scaling keeps Eq. 1 exact).
  std::vector<double> sizes(k);
  double total = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    sizes[i] = size_at(i, tau);
    total += sizes[i];
  }
  REPRO_ENSURE(total > 0.0, "degenerate equilibrium");
  std::vector<ProcessPrediction> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i)
    out.push_back(predict_at(processes[i], sizes[i] * a / total));
  return out;
}

std::vector<ProcessPrediction> EquilibriumSolver::solve_newton_impl(
    std::span<const SolverInput> processes,
    std::span<const double> cpu_share,
    std::span<const math::PiecewiseLinear* const> fill,
    std::span<const double> warm_start, SolveStats* stats) const {
  const std::size_t k = processes.size();
  const double a = static_cast<double>(ways_);

  // Process i's terms at S_i — G_i⁻¹(S_i) and SPI_i(MPA_i(S_i)) —
  // memoized on the exact bits of S_i. A forward-difference Jacobian
  // column moves one coordinate, so the other k−1 terms repeat the base
  // point; two entries per process hold the base point and the latest
  // probe. The cached values are the ones a fresh evaluation returns,
  // so the residuals are bit-identical to evaluating every term.
  struct Terms {
    double fill;
    double spi;
  };
  struct Memo {
    std::uint64_t key[2] = {};
    Terms terms[2] = {};
    int used = 0;    // entries filled
    int victim = 0;  // entry the next miss overwrites
  };
  std::vector<Memo> memo(k);
  auto terms_at = [&](std::size_t i, double s) -> const Terms& {
    Memo& m = memo[i];
    const auto key = std::bit_cast<std::uint64_t>(s);
    for (int e = 0; e < m.used; ++e)
      if (m.key[e] == key) {
        m.victim = 1 - e;
        return m.terms[e];
      }
    const int e = m.used < 2 ? m.used++ : m.victim;
    m.victim = 1 - e;
    m.key[e] = key;
    m.terms[e] = {(*fill[i])(s),
                  processes[i].spi_at(processes[i].histogram->mpa(s))};
    return m.terms[e];
  };

  // Unknowns: S_1..S_k. Equation 0 is Eq. 1 (normalized by A); for
  // i >= 1, Eq. 7 in cross-multiplied, relative form. CPU shares scale
  // each process's access rate, so API enters as cpu_share·API.
  auto residuals = [&](std::span<const double> s, std::span<double> f) {
    double sum = 0.0;
    for (double v : s) sum += v;
    f[0] = (sum - a) / a;
    const Terms t0 = terms_at(0, s[0]);
    for (std::size_t i = 1; i < k; ++i) {
      const Terms& ti = terms_at(i, s[i]);
      const double lhs =
          t0.fill * cpu_share[i] * processes[i].api * t0.spi;
      const double rhs =
          ti.fill * cpu_share[0] * processes[0].api * ti.spi;
      const double scale = 0.5 * (std::fabs(lhs) + std::fabs(rhs)) + 1e-300;
      f[i] = (lhs - rhs) / scale;
    }
  };

  const double floor = std::max(options_.min_ways, 0.05);
  auto project = [&](std::span<double> s) {
    for (double& v : s) v = std::clamp(v, floor, a);
  };

  // Seed from the previous equilibrium when the caller has one: after
  // a small profile delta the old steady state is inside Newton's
  // quadratic-convergence basin, so the re-solve lands in 1–2 damped
  // steps instead of marching in from the uniform A/k split. Newton
  // iterates in place: `s` ends at the solution.
  std::vector<double> s(k, a / static_cast<double>(k));
  if (!warm_start.empty()) {
    std::copy(warm_start.begin(), warm_start.end(), s.begin());
    project(s);
  }
  math::NewtonOptions opt;
  opt.f_tol = 1e-8;
  opt.max_iter = 200;
  math::NewtonResult res = math::newton_raphson(residuals, s, project, opt);
  if (!res.converged && !warm_start.empty()) {
    // A warm start is only ever an optimization; a seed far from the
    // fixed point (e.g. projected in from outside [0, A]) must not turn
    // a solvable instance into a failure. Retry cold.
    const int warm_iterations = res.iterations;
    std::fill(s.begin(), s.end(), a / static_cast<double>(k));
    res = math::newton_raphson(residuals, s, project, opt);
    res.iterations += warm_iterations;
  }
  REPRO_ENSURE(res.converged, "Newton equilibrium failed to converge");
  if (stats != nullptr) stats->iterations = res.iterations;

  std::vector<ProcessPrediction> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i)
    out.push_back(predict_at(processes[i], s[i]));
  return out;
}

}  // namespace repro::core

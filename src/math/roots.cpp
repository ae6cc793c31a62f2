#include "repro/math/roots.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "repro/common/ensure.hpp"
#include "repro/math/matrix.hpp"

namespace repro::math {

double solve_bracketed(FunctionRef<double(double)> f, double lo, double hi,
                       double x_tol, int max_iter) {
  REPRO_ENSURE(lo <= hi, "invalid bracket");
  double f_lo = f(lo);
  double f_hi = f(hi);
  if (f_lo == 0.0) return lo;
  if (f_hi == 0.0) return hi;
  REPRO_ENSURE(std::signbit(f_lo) != std::signbit(f_hi),
               "solve_bracketed requires a sign change");

  double mid = 0.5 * (lo + hi);
  for (int it = 0; it < max_iter && (hi - lo) > x_tol; ++it) {
    // Secant proposal, accepted only if it lands strictly inside.
    double prop = mid;
    const double denom = f_hi - f_lo;
    if (denom != 0.0) {
      prop = lo - f_lo * (hi - lo) / denom;
      const double margin = 0.01 * (hi - lo);
      if (!(prop > lo + margin && prop < hi - margin))
        prop = 0.5 * (lo + hi);
    } else {
      prop = 0.5 * (lo + hi);
    }
    const double f_prop = f(prop);
    if (f_prop == 0.0) return prop;
    if (std::signbit(f_prop) == std::signbit(f_lo)) {
      lo = prop;
      f_lo = f_prop;
    } else {
      hi = prop;
      f_hi = f_prop;
    }
    mid = 0.5 * (lo + hi);
  }
  return mid;
}

namespace {

double inf_norm(std::span<const double> v) {
  double m = 0.0;
  for (double e : v) m = std::max(m, std::fabs(e));
  return m;
}

}  // namespace

NewtonResult newton_raphson(NewtonResidual f, std::span<double> x,
                            NewtonProjection project,
                            const NewtonOptions& options) {
  const std::size_t n = x.size();
  REPRO_ENSURE(n > 0, "newton_raphson needs unknowns");
  // One workspace for the whole solve: F(x), a probe point and its
  // residual (Jacobian columns, then line-search trials), the step,
  // and the n×n Jacobian that the LU factors overwrite.
  std::vector<double> work(n * (n + 4));
  const std::span<double> ws(work);
  const std::span<double> fx = ws.subspan(0, n);
  const std::span<double> probe = ws.subspan(n, n);
  const std::span<double> f_probe = ws.subspan(2 * n, n);
  const std::span<double> step = ws.subspan(3 * n, n);
  const std::span<double> jac = ws.subspan(4 * n);

  if (project) project(x);
  NewtonResult result;
  f(x, fx);

  for (int it = 0; it < options.max_iter; ++it) {
    result.iterations = it;
    result.residual_norm = inf_norm(fx);
    if (result.residual_norm < options.f_tol) {
      result.converged = true;
      return result;
    }

    // Forward-difference Jacobian, column by column; a column whose
    // probe the projection undoes stays zero.
    for (std::size_t c = 0; c < n; ++c) {
      const double h = options.jacobian_eps * std::max(1.0, std::fabs(x[c]));
      std::copy(x.begin(), x.end(), probe.begin());
      probe[c] += h;
      if (project) project(probe);
      const double h_actual = probe[c] - x[c];
      if (h_actual == 0.0) {
        for (std::size_t r = 0; r < n; ++r) jac[r * n + c] = 0.0;
        continue;
      }
      f(probe, f_probe);
      for (std::size_t r = 0; r < n; ++r)
        jac[r * n + c] = (f_probe[r] - fx[r]) / h_actual;
    }

    for (std::size_t i = 0; i < n; ++i) step[i] = -fx[i];
    // Singular Jacobian: give up, report non-convergence.
    if (!solve_lu_in_place(jac, step)) break;

    // Backtracking line search on ‖F‖∞.
    double lambda = 1.0;
    bool accepted = false;
    for (int bt = 0; bt < 30; ++bt) {
      for (std::size_t i = 0; i < n; ++i) probe[i] = x[i] + lambda * step[i];
      if (project) project(probe);
      f(probe, f_probe);
      if (inf_norm(f_probe) < result.residual_norm) {
        std::copy(probe.begin(), probe.end(), x.begin());
        std::copy(f_probe.begin(), f_probe.end(), fx.begin());
        accepted = true;
        break;
      }
      lambda *= 0.5;
    }
    if (!accepted || inf_norm(step) * lambda < options.step_tol) break;
  }

  result.residual_norm = inf_norm(fx);
  result.converged = result.residual_norm < options.f_tol;
  return result;
}

}  // namespace repro::math

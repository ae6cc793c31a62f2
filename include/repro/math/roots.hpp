// Root finding: scalar bracketing and multidimensional Newton–Raphson.
//
// The paper solves the k-process equilibrium system (Eq. 1 + Eq. 7)
// with Newton–Raphson iteration. We provide that solver (numeric
// Jacobian, damped steps) plus a guarded scalar solver used by the
// robust nested-bisection formulation of the same system. Both run
// once per priced co-schedule, so neither allocates per evaluation:
// callbacks are borrowed (FunctionRef), Newton's residual writes into
// a caller-sized span, and one workspace per solve holds the probe
// points, the Jacobian and its in-place LU factors.
#pragma once

#include <span>

#include "repro/common/function_ref.hpp"

namespace repro::math {

/// Find x in [lo, hi] with f(x) = 0 for continuous f with f(lo), f(hi)
/// of opposite sign (or zero at an endpoint). Bisection with a secant
/// acceleration step; always converges for a valid bracket.
double solve_bracketed(FunctionRef<double(double)> f, double lo, double hi,
                       double x_tol = 1e-10, int max_iter = 200);

struct NewtonOptions {
  int max_iter = 100;
  double f_tol = 1e-10;       // stop when ‖F‖∞ < f_tol
  double step_tol = 1e-12;    // stop when the damped step is this small
  double jacobian_eps = 1e-6; // relative finite-difference perturbation
};

struct NewtonResult {
  bool converged = false;
  int iterations = 0;
  double residual_norm = 0.0;
};

/// F: R^n → R^n, writing F(x) into `f` (f.size() == x.size()).
using NewtonResidual =
    FunctionRef<void(std::span<const double> x, std::span<double> f)>;
/// Constrains an iterate to the feasible region, in place.
using NewtonProjection = FunctionRef<void(std::span<double> x)>;

/// Damped Newton–Raphson for F(x) = 0 with a numeric forward-difference
/// Jacobian, partially pivoted LU and backtracking line search on
/// ‖F‖∞. `x` holds the start on entry and the last accepted iterate on
/// return. An optional `project` constrains iterates to the feasible
/// region (the equilibrium solver keeps every S_i in (0, A)). A
/// singular Jacobian ends the solve with converged = false; nothing
/// throws except an empty `x`.
NewtonResult newton_raphson(NewtonResidual f, std::span<double> x,
                            NewtonProjection project = {},
                            const NewtonOptions& options = {});

}  // namespace repro::math

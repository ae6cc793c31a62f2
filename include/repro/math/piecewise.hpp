// Piecewise-linear interpolation.
//
// The equilibrium solver (paper §3.3) relaxes the discrete per-way
// quantities MPA(S) and G⁻¹(S) to continuous functions of the
// effective cache size S. PiecewiseLinear holds sampled knots and
// provides continuous evaluation with clamped extrapolation. Both of
// those curves sit on uniform grids (MPA at every way, G⁻¹ at every
// fill-curve step), so evaluation first tries the knot cell a uniform
// grid predicts and binary-searches only when that guess misses; the
// segment used is upper_bound's either way, so results do not depend
// on the spacing.
#pragma once

#include <span>
#include <vector>

namespace repro::math {

class PiecewiseLinear {
 public:
  PiecewiseLinear() = default;

  /// Knots must be strictly increasing in x; at least one knot.
  PiecewiseLinear(std::vector<double> xs, std::vector<double> ys);

  /// Linear interpolation between knots; clamps to the end values
  /// outside the knot range (the natural behaviour for MPA curves,
  /// which are flat beyond the sampled ways).
  double operator()(double x) const;

  bool empty() const { return xs_.empty(); }
  std::span<const double> xs() const { return xs_; }
  std::span<const double> ys() const { return ys_; }

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
  double inv_spacing_ = 0.0;  // 1 / mean knot spacing; 0 for one knot
};

}  // namespace repro::math

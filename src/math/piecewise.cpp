#include "repro/math/piecewise.hpp"

#include <algorithm>
#include <cmath>

#include "repro/common/ensure.hpp"

namespace repro::math {

PiecewiseLinear::PiecewiseLinear(std::vector<double> xs,
                                 std::vector<double> ys)
    : xs_(std::move(xs)), ys_(std::move(ys)) {
  REPRO_ENSURE(!xs_.empty() && xs_.size() == ys_.size(),
               "knot arrays must be nonempty and equal length");
  for (std::size_t i = 1; i < xs_.size(); ++i)
    REPRO_ENSURE(xs_[i] > xs_[i - 1], "x knots must be strictly increasing");
}

double PiecewiseLinear::operator()(double x) const {
  REPRO_ENSURE(!xs_.empty(), "empty interpolant");
  // NaN slips past both clamps, and upper_bound would then return end().
  REPRO_ENSURE(!std::isnan(x), "interpolant argument is NaN");
  if (x <= xs_.front()) return ys_.front();
  if (x >= xs_.back()) return ys_.back();
  const auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
  const std::size_t hi = static_cast<std::size_t>(it - xs_.begin());
  const std::size_t lo = hi - 1;
  const double t = (x - xs_[lo]) / (xs_[hi] - xs_[lo]);
  return ys_[lo] + t * (ys_[hi] - ys_[lo]);
}

double PiecewiseLinear::derivative(double x) const {
  REPRO_ENSURE(!xs_.empty(), "empty interpolant");
  if (x < xs_.front() || x > xs_.back() || xs_.size() == 1) return 0.0;
  auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
  if (it == xs_.end()) --it;  // x == back(): use the last segment
  const std::size_t hi =
      std::max<std::size_t>(1, static_cast<std::size_t>(it - xs_.begin()));
  const std::size_t lo = hi - 1;
  return (ys_[hi] - ys_[lo]) / (xs_[hi] - xs_[lo]);
}

double PiecewiseLinear::inverse(double y) const {
  REPRO_ENSURE(!ys_.empty(), "empty interpolant");
  const bool increasing = ys_.back() >= ys_.front();
  // Verify monotonicity in the requested direction (weak).
  for (std::size_t i = 1; i < ys_.size(); ++i)
    REPRO_ENSURE(increasing ? ys_[i] >= ys_[i - 1] : ys_[i] <= ys_[i - 1],
                 "inverse requires monotone y knots");

  const double y_lo = increasing ? ys_.front() : ys_.back();
  const double y_hi = increasing ? ys_.back() : ys_.front();
  if (y <= y_lo) return increasing ? xs_.front() : xs_.back();
  if (y >= y_hi) return increasing ? xs_.back() : xs_.front();

  // Find the containing segment by scanning (knot counts here are tiny:
  // at most the cache associativity).
  for (std::size_t i = 1; i < ys_.size(); ++i) {
    const double a = ys_[i - 1];
    const double b = ys_[i];
    const bool inside = increasing ? (y >= a && y <= b) : (y <= a && y >= b);
    if (!inside) continue;
    if (a == b) return xs_[i - 1];  // flat segment: leftmost preimage
    const double t = (y - a) / (b - a);
    return xs_[i - 1] + t * (xs_[i] - xs_[i - 1]);
  }
  return xs_.back();  // unreachable given the clamps above
}

}  // namespace repro::math

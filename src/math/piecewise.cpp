#include "repro/math/piecewise.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "repro/common/ensure.hpp"

namespace repro::math {

PiecewiseLinear::PiecewiseLinear(std::vector<double> xs,
                                 std::vector<double> ys)
    : xs_(std::move(xs)), ys_(std::move(ys)) {
  REPRO_ENSURE(!xs_.empty() && xs_.size() == ys_.size(),
               "knot arrays must be nonempty and equal length");
  for (std::size_t i = 1; i < xs_.size(); ++i)
    REPRO_ENSURE(xs_[i] > xs_[i - 1], "x knots must be strictly increasing");
  // The grid guess must stay a finite, nonnegative index: a span so
  // narrow the reciprocal overflows (or so wide the span does) makes
  // every lookup binary-search instead.
  if (xs_.size() > 1) {
    const double inv =
        static_cast<double>(xs_.size() - 1) / (xs_.back() - xs_.front());
    if (std::isfinite(inv)) inv_spacing_ = inv;
  }
}

double PiecewiseLinear::operator()(double x) const {
  REPRO_ENSURE(!xs_.empty(), "empty interpolant");
  // NaN slips past both clamps, and upper_bound would then return end().
  REPRO_ENSURE(!std::isnan(x), "interpolant argument is NaN");
  if (x <= xs_.front()) return ys_.front();
  if (x >= xs_.back()) return ys_.back();
  // Here front < x < back, so upper_bound lies in [1, size − 1]. Try
  // the cell a uniform grid predicts; keep it only if it brackets x the
  // way upper_bound would (xs[hi−1] <= x < xs[hi]), else search.
  // (The guess converts through a signed integer: one instruction,
  // where a double → size_t conversion needs a range branch.)
  const std::size_t last = xs_.size() - 1;
  std::size_t hi = std::min(
      last, 1 + static_cast<std::size_t>(static_cast<std::int64_t>(
                    (x - xs_.front()) * inv_spacing_)));
  if (!(xs_[hi - 1] <= x && x < xs_[hi]))
    hi = static_cast<std::size_t>(
        std::upper_bound(xs_.begin(), xs_.end(), x) - xs_.begin());
  const std::size_t lo = hi - 1;
  const double t = (x - xs_[lo]) / (xs_[hi] - xs_[lo]);
  return ys_[lo] + t * (ys_[hi] - ys_[lo]);
}

}  // namespace repro::math

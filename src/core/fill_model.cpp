#include "repro/core/fill_model.hpp"

#include <algorithm>
#include <span>

#include "repro/common/ensure.hpp"

namespace repro::core {

FillMarkovChain::FillMarkovChain(const ReuseHistogram& hist,
                                 std::uint32_t max_ways) {
  REPRO_ENSURE(max_ways > 0, "need at least one way");
  mpa_at_.resize(max_ways + 1);
  for (std::uint32_t i = 0; i <= max_ways; ++i)
    mpa_at_[i] = hist.mpa(static_cast<Ways>(i));
  // The chain must not grow past the associativity: with a full set,
  // a miss replaces a line rather than adding one.
  mpa_at_[max_ways] = 0.0;
  p_.assign(max_ways + 1, 0.0);
  p_[0] = 1.0;
}

void FillMarkovChain::step() {
  // Eq. 4: P_{i,n} = P_{i,n−1}·(1 − MPA(i)) + P_{i−1,n−1}·MPA(i−1).
  // Traverse downward so P_{i−1,n−1} is still the old value.
  for (std::size_t i = p_.size(); i-- > 1;)
    p_[i] = p_[i] * (1.0 - mpa_at_[i]) + p_[i - 1] * mpa_at_[i - 1];
  p_[0] *= 1.0 - mpa_at_[0];
  ++n_;
}

void FillMarkovChain::run(std::uint64_t n) {
  for (std::uint64_t k = 0; k < n; ++k) step();
}

Ways FillMarkovChain::expected_occupancy() const {
  double g = 0.0;
  for (std::size_t i = 1; i < p_.size(); ++i)
    g += static_cast<double>(i) * p_[i];
  return g;
}

math::PiecewiseLinear fill_curve(const ReuseHistogram& hist,
                                 std::uint32_t max_ways, double mpa_floor,
                                 std::uint32_t steps_per_way) {
  REPRO_ENSURE(max_ways > 0 && steps_per_way > 0, "bad fill_curve args");
  REPRO_ENSURE(mpa_floor > 0.0, "mpa_floor must be positive");

  // n(S) = ∫₀^S dx / MPA(x), accumulated with the midpoint rule on a
  // uniform grid; knots are kept at every grid point so the inverse
  // map is equally accurate anywhere in [0, max_ways].
  const std::size_t n_steps =
      static_cast<std::size_t>(max_ways) * steps_per_way;
  const double dx = static_cast<double>(max_ways) / n_steps;
  std::vector<double> xs(n_steps + 1);
  std::vector<double> ys(n_steps + 1);
  xs[0] = 0.0;
  ys[0] = 0.0;
  // The midpoints ascend, so MPA's bracketing knot is found by walking
  // a cursor forward instead of a binary search per midpoint. Clamps,
  // bracket and interpolation are hist.mpa(mid)'s, expression for
  // expression, so every knot is bit-identical to evaluating it.
  const std::span<const double> mx = hist.mpa_curve().xs();
  const std::span<const double> my = hist.mpa_curve().ys();
  std::size_t hi = 0;  // first MPA knot with x > mid (upper_bound)
  double acc = 0.0;
  for (std::size_t k = 0; k < n_steps; ++k) {
    const double mid = (static_cast<double>(k) + 0.5) * dx;
    double mpa;
    if (mid <= mx.front()) {
      mpa = my.front();
    } else if (mid >= mx.back()) {
      mpa = my.back();
    } else {
      while (mx[hi] <= mid) ++hi;
      const std::size_t lo = hi - 1;
      const double t = (mid - mx[lo]) / (mx[hi] - mx[lo]);
      mpa = my[lo] + t * (my[hi] - my[lo]);
    }
    acc += dx / std::max(mpa, mpa_floor);
    xs[k + 1] = static_cast<double>(k + 1) * dx;
    ys[k + 1] = acc;
  }
  return math::PiecewiseLinear(std::move(xs), std::move(ys));
}

}  // namespace repro::core

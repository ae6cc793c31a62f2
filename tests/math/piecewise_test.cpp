#include "repro/math/piecewise.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "repro/common/ensure.hpp"
#include "repro/common/rng.hpp"
#include "repro/core/fill_model.hpp"
#include "repro/core/reuse_histogram.hpp"

namespace repro::math {
namespace {

TEST(Piecewise, InterpolatesBetweenKnots) {
  const PiecewiseLinear f({0.0, 1.0, 2.0}, {0.0, 10.0, 30.0});
  EXPECT_DOUBLE_EQ(f(0.5), 5.0);
  EXPECT_DOUBLE_EQ(f(1.5), 20.0);
}

TEST(Piecewise, HitsKnotsExactly) {
  const PiecewiseLinear f({0.0, 1.0, 2.0}, {1.0, -1.0, 4.0});
  EXPECT_DOUBLE_EQ(f(0.0), 1.0);
  EXPECT_DOUBLE_EQ(f(1.0), -1.0);
  EXPECT_DOUBLE_EQ(f(2.0), 4.0);
}

TEST(Piecewise, ClampsOutsideRange) {
  const PiecewiseLinear f({1.0, 2.0}, {5.0, 7.0});
  EXPECT_DOUBLE_EQ(f(0.0), 5.0);
  EXPECT_DOUBLE_EQ(f(3.0), 7.0);
}

TEST(Piecewise, RejectsBadKnots) {
  EXPECT_THROW(PiecewiseLinear({1.0, 1.0}, {0.0, 1.0}), Error);
  EXPECT_THROW(PiecewiseLinear({2.0, 1.0}, {0.0, 1.0}), Error);
  EXPECT_THROW(PiecewiseLinear({}, {}), Error);
  EXPECT_THROW(PiecewiseLinear({1.0}, {0.0, 1.0}), Error);
}

TEST(Piecewise, RejectsNanArgument) {
  // NaN passes both clamp comparisons; it must not reach the bracket
  // search, whose upper_bound would return one past the last knot.
  const PiecewiseLinear f({0.0, 1.0, 2.0}, {0.0, 10.0, 30.0});
  EXPECT_THROW(f(std::numeric_limits<double>::quiet_NaN()), Error);
}

TEST(Piecewise, SingleKnotActsAsConstant) {
  const PiecewiseLinear f({1.0}, {42.0});
  EXPECT_DOUBLE_EQ(f(0.0), 42.0);
  EXPECT_DOUBLE_EQ(f(1.0), 42.0);
  EXPECT_DOUBLE_EQ(f(9.0), 42.0);
}

/// Lookup by upper_bound over the knots, with operator()'s clamps and
/// interpolation expression: the result every evaluation must equal.
double upper_bound_eval(const PiecewiseLinear& f, double x) {
  const std::span<const double> xs = f.xs();
  const std::span<const double> ys = f.ys();
  if (x <= xs.front()) return ys.front();
  if (x >= xs.back()) return ys.back();
  const std::size_t hi = static_cast<std::size_t>(
      std::upper_bound(xs.begin(), xs.end(), x) - xs.begin());
  const std::size_t lo = hi - 1;
  const double t = (x - xs[lo]) / (xs[hi] - xs[lo]);
  return ys[lo] + t * (ys[hi] - ys[lo]);
}

/// Every knot, both float neighbours of every knot, and `random`
/// seeded points spread over (and a little past) the knot range.
std::vector<double> probe_points(const PiecewiseLinear& f,
                                 std::size_t random) {
  const std::span<const double> xs = f.xs();
  std::vector<double> out;
  for (double x : xs) {
    out.push_back(x);
    out.push_back(std::nextafter(x, -std::numeric_limits<double>::infinity()));
    out.push_back(std::nextafter(x, std::numeric_limits<double>::infinity()));
  }
  Rng rng(0x9e3779b9u + xs.size());
  const double span = xs.back() - xs.front();
  for (std::size_t i = 0; i < random; ++i)
    out.push_back(rng.uniform(xs.front() - 0.05 * span,
                              xs.back() + 0.05 * span));
  return out;
}

void expect_exact_lookup(const PiecewiseLinear& f, std::size_t random) {
  for (double x : probe_points(f, random))
    ASSERT_EQ(f(x), upper_bound_eval(f, x)) << "x = " << x;
}

TEST(Piecewise, GridLookupMatchesUpperBoundOnFillCurves) {
  // G⁻¹ curves as the solver evaluates them: uniform knot grids whose
  // spacing ways/(ways·steps) is rarely exact in binary, so near a knot
  // the grid guess can land next to the true cell and must be checked.
  const core::ReuseHistogram hist({0.3, 0.2, 0.15, 0.1, 0.05, 0.05}, 0.15);
  const std::uint32_t shapes[][2] = {{1, 1},  {2, 3},   {8, 7},
                                     {16, 64}, {12, 33}, {24, 5}};
  for (const auto& shape : shapes) {
    SCOPED_TRACE(::testing::Message()
                 << "ways " << shape[0] << ", steps/way " << shape[1]);
    expect_exact_lookup(core::fill_curve(hist, shape[0], 1e-6, shape[1]),
                        2000);
  }
  // And the MPA curve itself: knots at the integers 0..max_depth.
  expect_exact_lookup(hist.mpa_curve(), 2000);
}

TEST(Piecewise, GridLookupMatchesUpperBoundOnRoughUniformCurve) {
  // Knot values of mixed sign and magnitude, so ys[hi] − ys[lo] rounds:
  // at a knot, t = 1 on the segment to its left would then differ from
  // upper_bound's t = 0 on the segment to its right. On this grid the
  // guess for many knots lands on that left segment.
  Rng rng(7);
  std::vector<double> xs(257);
  std::vector<double> ys(257);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = 0.3 + 0.7 * static_cast<double>(i);
    ys[i] = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-3.0, 3.0));
  }
  const double inv = 256.0 / (xs.back() - xs.front());
  std::size_t left_guesses = 0;
  for (std::size_t k = 1; k + 1 < xs.size(); ++k)
    if (static_cast<std::size_t>((xs[k] - xs.front()) * inv) == k - 1)
      ++left_guesses;
  EXPECT_GT(left_guesses, 20u) << "the grid no longer tests knot guesses";
  expect_exact_lookup(PiecewiseLinear(std::move(xs), std::move(ys)), 4000);
}

TEST(Piecewise, GridLookupFallsBackOnClusteredKnots) {
  // resample_mpa_curve's kind of curve: scattered occupancy samples,
  // exact ties nudged apart by 1e-6, so knots cluster and the uniform
  // guess misses the cell for most points.
  const PiecewiseLinear f(
      {0.4, 3.9, 3.9 + 1e-6, 3.9 + 2e-6, 4.1, 7.8, 7.8 + 1e-6, 15.2},
      {0.9, 0.6, 0.59, 0.58, 0.55, 0.3, 0.29, 0.05});
  const std::span<const double> xs = f.xs();
  const double inv = static_cast<double>(xs.size() - 1) /
                     (xs.back() - xs.front());
  std::size_t misses = 0;
  for (double x : probe_points(f, 4000)) {
    ASSERT_EQ(f(x), upper_bound_eval(f, x)) << "x = " << x;
    if (x <= xs.front() || x >= xs.back()) continue;
    const std::size_t guess = std::min(
        xs.size() - 1, 1 + static_cast<std::size_t>((x - xs.front()) * inv));
    const auto hi = static_cast<std::size_t>(
        std::upper_bound(xs.begin(), xs.end(), x) - xs.begin());
    if (guess != hi) ++misses;
  }
  EXPECT_GT(misses, 1000u) << "the curve no longer exercises the fallback";
}

TEST(Piecewise, GridLookupOnOneAndTwoKnots) {
  const PiecewiseLinear one({2.5}, {7.0});
  expect_exact_lookup(one, 100);
  EXPECT_EQ(one(-1e300), 7.0);
  EXPECT_EQ(one(1e300), 7.0);
  const PiecewiseLinear two({-1.0, 3.0}, {4.0, -8.0});
  expect_exact_lookup(two, 1000);
  EXPECT_EQ(two(1.0), -2.0);
  EXPECT_THROW(one(std::numeric_limits<double>::quiet_NaN()), Error);
  EXPECT_THROW(two(std::numeric_limits<double>::quiet_NaN()), Error);
}

}  // namespace
}  // namespace repro::math

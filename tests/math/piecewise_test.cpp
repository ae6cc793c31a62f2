#include "repro/math/piecewise.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "repro/common/ensure.hpp"

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

TEST(Piecewise, DerivativeIsSegmentSlope) {
  const PiecewiseLinear f({0.0, 1.0, 3.0}, {0.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(f.derivative(0.5), 2.0);
  EXPECT_DOUBLE_EQ(f.derivative(2.0), 0.0);
  EXPECT_DOUBLE_EQ(f.derivative(-1.0), 0.0);
}

TEST(Piecewise, InverseOfIncreasingFunction) {
  const PiecewiseLinear f({0.0, 1.0, 2.0}, {0.0, 10.0, 30.0});
  EXPECT_DOUBLE_EQ(f.inverse(5.0), 0.5);
  EXPECT_DOUBLE_EQ(f.inverse(20.0), 1.5);
  EXPECT_DOUBLE_EQ(f.inverse(10.0), 1.0);
}

TEST(Piecewise, InverseOfDecreasingFunction) {
  // MPA(S) curves are decreasing; inverse must handle that direction.
  const PiecewiseLinear f({1.0, 2.0, 4.0}, {0.8, 0.4, 0.1});
  EXPECT_DOUBLE_EQ(f.inverse(0.6), 1.5);
  EXPECT_NEAR(f.inverse(0.25), 3.0, 1e-12);
}

TEST(Piecewise, InverseClampsOutsideRange) {
  const PiecewiseLinear f({0.0, 1.0}, {0.0, 1.0});
  EXPECT_DOUBLE_EQ(f.inverse(-0.5), 0.0);
  EXPECT_DOUBLE_EQ(f.inverse(2.0), 1.0);
}

TEST(Piecewise, InverseRejectsNonMonotone) {
  const PiecewiseLinear f({0.0, 1.0, 2.0}, {0.0, 2.0, 1.0});
  EXPECT_THROW(f.inverse(0.5), Error);
}

TEST(Piecewise, RoundTripPropertyOnStrictlyMonotoneKnots) {
  const PiecewiseLinear f({1.0, 2.0, 3.0, 4.0}, {0.9, 0.5, 0.2, 0.05});
  for (double x = 1.0; x <= 4.0; x += 0.125)
    EXPECT_NEAR(f.inverse(f(x)), x, 1e-10) << "x = " << x;
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

}  // namespace
}  // namespace repro::math

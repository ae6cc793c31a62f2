#include "repro/core/fill_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "repro/common/ensure.hpp"
#include "repro/common/rng.hpp"
#include "repro/math/roots.hpp"
#include "repro/sim/cache.hpp"

namespace repro::core {
namespace {

ReuseHistogram example_hist() {
  // Mixed locality: some shallow reuse, some deep, 15% streaming.
  return ReuseHistogram({0.3, 0.2, 0.15, 0.1, 0.1}, 0.15);
}

TEST(FillMarkovChain, StartsEmpty) {
  FillMarkovChain chain(example_hist(), 8);
  EXPECT_DOUBLE_EQ(chain.expected_occupancy(), 0.0);
  EXPECT_EQ(chain.accesses(), 0u);
}

TEST(FillMarkovChain, FirstAccessAlwaysOccupiesOneLine) {
  // The paper's P_{1,1} = 1 base case.
  FillMarkovChain chain(example_hist(), 8);
  chain.step();
  EXPECT_DOUBLE_EQ(chain.expected_occupancy(), 1.0);
  EXPECT_DOUBLE_EQ(chain.distribution()[1], 1.0);
}

TEST(FillMarkovChain, DistributionStaysNormalized) {
  FillMarkovChain chain(example_hist(), 8);
  for (int n = 0; n < 500; ++n) {
    chain.step();
    double sum = 0.0;
    for (double p : chain.distribution()) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9) << "after " << n + 1 << " accesses";
  }
}

TEST(FillMarkovChain, OccupancyIsMonotoneInAccesses) {
  FillMarkovChain chain(example_hist(), 8);
  double prev = 0.0;
  for (int n = 0; n < 300; ++n) {
    chain.step();
    const double g = chain.expected_occupancy();
    EXPECT_GE(g, prev - 1e-12);
    prev = g;
  }
}

TEST(FillMarkovChain, SaturatesAtAssociativity) {
  FillMarkovChain chain(example_hist(), 4);
  chain.run(100000);
  EXPECT_LE(chain.expected_occupancy(), 4.0 + 1e-9);
  EXPECT_GT(chain.expected_occupancy(), 3.9);
}

TEST(FillMarkovChain, AllHitWorkloadStopsAtOneLine) {
  const ReuseHistogram h({1.0}, 0.0);  // always depth 1
  FillMarkovChain chain(h, 8);
  chain.run(1000);
  EXPECT_NEAR(chain.expected_occupancy(), 1.0, 1e-9);
}

TEST(FillMarkovChain, StreamingWorkloadFillsLinearly) {
  const ReuseHistogram h({}, 1.0);  // every access misses
  FillMarkovChain chain(h, 16);
  chain.run(10);
  EXPECT_NEAR(chain.expected_occupancy(), 10.0, 1e-9);
  chain.run(10);
  EXPECT_NEAR(chain.expected_occupancy(), 16.0, 1e-9);  // capped
}

TEST(FillMarkovChain, MatchesMonteCarloCacheFill) {
  // Ground truth: fill one real 8-way set with accesses drawn from the
  // histogram's distribution and compare occupancy after n accesses.
  const ReuseHistogram h({0.4, 0.2, 0.1}, 0.3);
  constexpr int kTrials = 3000;
  constexpr int kAccesses = 12;

  Rng rng(2024);
  double mc_sum = 0.0;
  for (int t = 0; t < kTrials; ++t) {
    sim::SharedCache cache(sim::CacheGeometry{1, 8, 64}, false, 1);
    std::vector<std::uint64_t> stack;
    std::uint64_t next_line = 0;
    for (int n = 0; n < kAccesses; ++n) {
      const double u = rng.uniform();
      std::uint64_t line;
      if (u < 0.4 && stack.size() >= 1) {
        line = stack[0];
      } else if (u < 0.6 && stack.size() >= 2) {
        line = stack[1];
      } else if (u < 0.7 && stack.size() >= 3) {
        line = stack[2];
      } else {
        line = next_line++;
      }
      std::erase(stack, line);
      stack.insert(stack.begin(), line);
      cache.access({0, line}, 0);
    }
    mc_sum += cache.occupancy_ways(0);
  }
  const double mc = mc_sum / kTrials;

  FillMarkovChain chain(h, 8);
  chain.run(kAccesses);
  // The chain is a mean-field approximation of the exact process
  // (MPA(i) treats occupancy as the only state); agreement within a
  // few percent of a way is expected, not exactness.
  EXPECT_NEAR(chain.expected_occupancy(), mc, 0.35);
}

TEST(FillCurve, IsZeroAtZeroAndMonotone) {
  const math::PiecewiseLinear g = fill_curve(example_hist(), 8);
  EXPECT_DOUBLE_EQ(g(0.0), 0.0);
  double prev = 0.0;
  for (double s = 0.0; s <= 8.0; s += 0.25) {
    EXPECT_GE(g(s), prev - 1e-12);
    prev = g(s);
  }
}

TEST(FillCurve, StreamingFillIsIdentity) {
  // MPA ≡ 1 ⇒ every access adds a line ⇒ G⁻¹(S) = S.
  const ReuseHistogram h({}, 1.0);
  const math::PiecewiseLinear g = fill_curve(h, 16);
  for (double s = 0.0; s <= 16.0; s += 1.0)
    EXPECT_NEAR(g(s), s, 1e-9);
}

TEST(FillCurve, AgreesWithMarkovChain) {
  // The ODE limit and the exact chain must tell the same story:
  // G(g⁻¹-predicted access count) ≈ S.
  const ReuseHistogram h = example_hist();
  const std::uint32_t ways = 8;
  const math::PiecewiseLinear g = fill_curve(h, ways);
  for (double target = 1.0; target <= 6.0; target += 1.0) {
    const double n = g(target);
    FillMarkovChain chain(h, ways);
    chain.run(static_cast<std::uint64_t>(n + 0.5));
    EXPECT_NEAR(chain.expected_occupancy(), target, 0.35)
        << "target occupancy " << target;
  }
}

TEST(FillCurve, InverseRecoversOccupancy) {
  // G⁻¹ is strictly increasing, so the access count it reports for an
  // occupancy maps back to that occupancy and no other.
  const math::PiecewiseLinear g = fill_curve(example_hist(), 8);
  for (double s = 0.5; s <= 7.5; s += 0.5) {
    const double n = g(s);
    EXPECT_NEAR(math::solve_bracketed([&](double x) { return g(x) - n; },
                                      0.0, 8.0, 1e-12),
                s, 1e-6);
  }
}

TEST(FillCurve, CursorMatchesPerPointMpaBitForBit) {
  // The reference: the midpoint integral with hist.mpa(mid) evaluated
  // per point, exactly as the curve was built before the cursor walk.
  const auto reference = [](const ReuseHistogram& hist,
                            std::uint32_t max_ways, double mpa_floor,
                            std::uint32_t steps_per_way) {
    const std::size_t n_steps =
        static_cast<std::size_t>(max_ways) * steps_per_way;
    const double dx = static_cast<double>(max_ways) / n_steps;
    std::vector<double> ys(n_steps + 1, 0.0);
    double acc = 0.0;
    for (std::size_t k = 0; k < n_steps; ++k) {
      const double mid = (static_cast<double>(k) + 0.5) * dx;
      acc += dx / std::max(hist.mpa(mid), mpa_floor);
      ys[k + 1] = acc;
    }
    return ys;
  };
  const std::uint32_t ways = 8;
  Rng rng(17);
  for (std::size_t depth : {3u, 8u, 13u}) {  // pmf shorter/equal/longer
    for (double tail : {0.0, 0.2}) {
      std::vector<double> pmf(depth);
      double total = 0.0;
      for (double& p : pmf) total += p = rng.uniform(0.1, 1.0);
      for (double& p : pmf) p *= (1.0 - tail) / total;
      const ReuseHistogram h(pmf, tail);
      for (std::uint32_t steps : {1u, 7u, 64u}) {
        const math::PiecewiseLinear g = fill_curve(h, ways, 1e-6, steps);
        const std::vector<double> want = reference(h, ways, 1e-6, steps);
        ASSERT_EQ(g.ys().size(), want.size());
        for (std::size_t k = 0; k < want.size(); ++k)
          ASSERT_EQ(std::bit_cast<std::uint64_t>(g.ys()[k]),
                    std::bit_cast<std::uint64_t>(want[k]))
              << "depth " << depth << ", tail " << tail << ", steps "
              << steps << ", knot " << k;
      }
    }
  }
}

TEST(FillCurve, RejectsBadArguments) {
  EXPECT_THROW(fill_curve(example_hist(), 0), Error);
  EXPECT_THROW(fill_curve(example_hist(), 8, 0.0), Error);
}

}  // namespace
}  // namespace repro::core

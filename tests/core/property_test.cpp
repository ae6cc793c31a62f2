// Randomized property tests over the model invariants.
//
// Each TEST_P instance draws random-but-valid inputs from a seeded RNG
// and checks structural invariants that must hold for *any* workload:
// probability-measure preservation, Eq. 1 conservation, monotonicity
// of contention, permutation equivariance of the solver, and
// serialization round-tripping.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>

#include "repro/common/rng.hpp"
#include "repro/core/fill_model.hpp"
#include "repro/core/perf_model.hpp"
#include "repro/core/serialize.hpp"

namespace repro::core {
namespace {

/// A random valid histogram: geometric-ish weights with random decay,
/// random depth count, random tail mass.
ReuseHistogram random_histogram(Rng& rng) {
  const std::size_t depths = 1 + rng.uniform_index(24);
  std::vector<double> weights(depths);
  double v = rng.uniform(0.5, 2.0);
  const double decay = rng.uniform(0.3, 0.98);
  for (double& w : weights) {
    w = v * rng.uniform(0.2, 1.0);
    v *= decay;
  }
  const double tail_weight = rng.uniform(0.0, 1.5);
  double total = tail_weight;
  for (double w : weights) total += w;
  for (double& w : weights) w /= total;
  return ReuseHistogram(std::move(weights), tail_weight / total);
}

FeatureVector random_feature(Rng& rng, std::string name) {
  FeatureVector fv;
  fv.name = std::move(name);
  fv.histogram = random_histogram(rng);
  fv.api = rng.uniform(0.002, 0.08);
  fv.beta = rng.uniform(2e-10, 1e-9);
  fv.alpha = rng.uniform(0.0, 8e-9);
  return fv;
}

class PropertySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PropertySweep, HistogramIsAProbabilityMeasure) {
  Rng rng(GetParam());
  const ReuseHistogram h = random_histogram(rng);
  double total = h.tail_mass();
  for (std::uint32_t d = 1; d <= h.max_depth(); ++d) {
    EXPECT_GE(h.probability(d), 0.0);
    total += h.probability(d);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_P(PropertySweep, MpaCurveDecreasesFromOneToTail) {
  Rng rng(GetParam() ^ 0x11);
  const ReuseHistogram h = random_histogram(rng);
  EXPECT_DOUBLE_EQ(h.mpa(0.0), 1.0);
  double prev = 1.0;
  for (double s = 0.0; s <= h.max_depth() + 2.0; s += 0.3) {
    EXPECT_LE(h.mpa(s), prev + 1e-12);
    prev = h.mpa(s);
  }
  EXPECT_NEAR(h.mpa(h.max_depth() + 5.0), h.tail_mass(), 1e-12);
}

TEST_P(PropertySweep, MarkovChainConservesProbability) {
  Rng rng(GetParam() ^ 0x22);
  FillMarkovChain chain(random_histogram(rng), 16);
  chain.run(200);
  double total = 0.0;
  for (double p : chain.distribution()) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_LE(chain.expected_occupancy(), 16.0 + 1e-9);
}

TEST_P(PropertySweep, FillCurveIsMonotoneNonDecreasing) {
  Rng rng(GetParam() ^ 0x33);
  const math::PiecewiseLinear g = fill_curve(random_histogram(rng), 16);
  double prev = -1.0;
  for (double s = 0.0; s <= 16.0; s += 0.5) {
    EXPECT_GE(g(s), prev - 1e-12);
    prev = g(s);
  }
}

TEST_P(PropertySweep, EquilibriumConservesWaysAndStaysPhysical) {
  Rng rng(GetParam() ^ 0x44);
  const std::size_t k = 2 + rng.uniform_index(3);  // 2..4 processes
  std::vector<FeatureVector> procs;
  for (std::size_t i = 0; i < k; ++i) {
    std::string name = "p";
    name += std::to_string(i);
    procs.push_back(random_feature(rng, std::move(name)));
  }

  const EquilibriumSolver solver(16);
  const auto pred = solver.solve(procs);
  double total = 0.0;
  for (const auto& p : pred) {
    EXPECT_GE(p.effective_size, 0.0);
    EXPECT_LE(p.effective_size, 16.0);
    EXPECT_GE(p.mpa, -1e-12);
    EXPECT_LE(p.mpa, 1.0 + 1e-12);
    EXPECT_GT(p.spi, 0.0);
    EXPECT_GT(p.aps, 0.0);
    total += p.effective_size;
  }
  EXPECT_NEAR(total, 16.0, 1e-6);
}

TEST_P(PropertySweep, EquilibriumIsPermutationEquivariant) {
  Rng rng(GetParam() ^ 0x55);
  std::vector<FeatureVector> procs{random_feature(rng, "a"),
                                   random_feature(rng, "b"),
                                   random_feature(rng, "c")};
  const EquilibriumSolver solver(16);
  const auto fwd = solver.solve(procs);
  std::vector<FeatureVector> reversed{procs[2], procs[1], procs[0]};
  const auto rev = solver.solve(reversed);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_NEAR(fwd[i].effective_size, rev[2 - i].effective_size, 1e-4);
}

TEST_P(PropertySweep, AddingACompetitorNeverHelps) {
  Rng rng(GetParam() ^ 0x66);
  const FeatureVector victim = random_feature(rng, "victim");
  const FeatureVector rival = random_feature(rng, "rival");
  const FeatureVector rival2 = random_feature(rng, "rival2");
  const EquilibriumSolver solver(16);
  const double mpa_pair = solver.solve({victim, rival})[0].mpa;
  const double mpa_trio = solver.solve({victim, rival, rival2})[0].mpa;
  EXPECT_GE(mpa_trio, mpa_pair - 1e-6);
}

TEST_P(PropertySweep, SerializationRoundTripsRandomProfiles) {
  Rng rng(GetParam() ^ 0x77);
  ProcessProfile p;
  p.name = "rand" + std::to_string(GetParam());
  p.features = random_feature(rng, p.name);
  p.power_alone = rng.uniform(10.0, 90.0);
  p.alone.l1rpi = rng.uniform(0.1, 0.5);
  p.alone.l2rpi = p.features.api;
  p.alone.brpi = rng.uniform(0.05, 0.3);
  p.alone.fppi = rng.uniform(0.0, 0.4);
  p.alone.l2mpr = rng.uniform(0.0, 1.0);
  p.alone.spi = rng.uniform(3e-10, 3e-9);
  for (int s = 0; s < 8; ++s) {
    p.mpa_at_ways.push_back(rng.uniform(0.0, 1.0));
    p.spi_at_ways.push_back(rng.uniform(3e-10, 3e-9));
  }

  std::string text;
  append_profile(text, p);
  std::stringstream ss(text);
  const ModelStore store = read_store(ss);
  ASSERT_EQ(store.profiles.size(), 1u);
  const ProcessProfile& q = store.profiles[0];
  EXPECT_DOUBLE_EQ(q.features.api, p.features.api);
  EXPECT_DOUBLE_EQ(q.features.alpha, p.features.alpha);
  EXPECT_DOUBLE_EQ(q.power_alone, p.power_alone);
  EXPECT_DOUBLE_EQ(q.alone.spi, p.alone.spi);
  for (std::uint32_t d = 1; d <= p.features.histogram.max_depth(); ++d)
    EXPECT_DOUBLE_EQ(q.features.histogram.probability(d),
                     p.features.histogram.probability(d));
  EXPECT_EQ(q.mpa_at_ways.size(), p.mpa_at_ways.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweep,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace repro::core

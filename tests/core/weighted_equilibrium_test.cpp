// Tests for the CPU-share-weighted equilibrium (time-sharing-aware
// contention) and warm-started solves.
#include <gtest/gtest.h>

#include "repro/common/ensure.hpp"
#include "repro/core/perf_model.hpp"

namespace repro::core {
namespace {

FeatureVector fv(std::string name, ReuseHistogram hist, double api,
                 double alpha, double beta) {
  FeatureVector f;
  f.name = std::move(name);
  f.histogram = std::move(hist);
  f.api = api;
  f.alpha = alpha;
  f.beta = beta;
  return f;
}

FeatureVector worker() {
  return fv("worker", ReuseHistogram(std::vector<double>(12, 0.07), 0.16),
            0.04, 4e-9, 6e-10);
}

FeatureVector sprinter() {
  return fv("sprinter", ReuseHistogram({0.6, 0.25, 0.1}, 0.05), 0.01,
            8e-10, 4e-10);
}

TEST(WeightedEquilibrium, UnitSharesMatchPlainSolve) {
  const EquilibriumSolver solver(16);
  const std::vector<FeatureVector> procs{worker(), sprinter()};
  const auto plain = solver.solve(procs);
  const std::vector<double> unit = {1.0, 1.0};
  const auto weighted = solver.solve(procs, SolveOptions{.cpu_share = unit});
  for (std::size_t i = 0; i < procs.size(); ++i)
    EXPECT_NEAR(plain[i].effective_size, weighted[i].effective_size, 1e-9);
}

TEST(WeightedEquilibrium, SmallerShareShrinksCacheFootprint) {
  const EquilibriumSolver solver(16);
  const std::vector<FeatureVector> procs{worker(), sprinter()};
  const std::vector<double> unit = {1.0, 1.0};
  const std::vector<double> quarter = {0.25, 1.0};
  const auto full = solver.solve(procs, SolveOptions{.cpu_share = unit});
  const auto quartered =
      solver.solve(procs, SolveOptions{.cpu_share = quarter});
  EXPECT_LT(quartered[0].effective_size, full[0].effective_size - 0.3);
  EXPECT_GT(quartered[1].effective_size, full[1].effective_size + 0.3);
}

TEST(WeightedEquilibrium, SizesStillSumToAssociativity) {
  const EquilibriumSolver solver(16);
  const std::vector<FeatureVector> procs{worker(), worker(), sprinter()};
  const std::vector<double> shares = {0.5, 0.5, 1.0};
  const auto pred = solver.solve(procs, SolveOptions{.cpu_share = shares});
  double total = 0.0;
  for (const auto& p : pred) total += p.effective_size;
  EXPECT_NEAR(total, 16.0, 1e-6);
  // The two half-share workers are symmetric.
  EXPECT_NEAR(pred[0].effective_size, pred[1].effective_size, 1e-6);
}

TEST(WeightedEquilibrium, RejectsBadShares) {
  const EquilibriumSolver solver(16);
  const std::vector<FeatureVector> procs{worker(), sprinter()};
  const std::vector<double> too_few = {1.0};
  const std::vector<double> zero = {0.0, 1.0};
  const std::vector<double> over_one = {1.5, 1.0};
  EXPECT_THROW(solver.solve(procs, SolveOptions{.cpu_share = too_few}), Error);
  EXPECT_THROW(solver.solve(procs, SolveOptions{.cpu_share = zero}), Error);
  EXPECT_THROW(solver.solve(procs, SolveOptions{.cpu_share = over_one}),
               Error);
}

TEST(WeightedEquilibrium, MethodsAgreeOnWellPosedInstances) {
  // The solve_weighted / solve_newton wrappers are gone; the two
  // methods behind the single entry point must still agree.
  const EquilibriumSolver solver(16);
  const std::vector<FeatureVector> procs{worker(), sprinter()};
  const std::vector<double> shares = {0.5, 1.0};
  const auto bisect = solver.solve(procs, SolveOptions{.cpu_share = shares});
  const auto newton = solver.solve(
      procs, SolveOptions{.method = SolveOptions::Method::kNewton,
                          .cpu_share = shares});
  for (std::size_t i = 0; i < procs.size(); ++i) {
    EXPECT_NEAR(bisect[i].effective_size, newton[i].effective_size, 1e-4);
    EXPECT_NEAR(bisect[i].spi, newton[i].spi, bisect[i].spi * 1e-4);
  }
}

TEST(WarmStart, SeededNewtonMatchesColdAndConvergesFaster) {
  const EquilibriumSolver solver(16);
  const std::vector<FeatureVector> procs{worker(), sprinter()};

  SolveStats cold_stats;
  SolveOptions cold;
  cold.method = SolveOptions::Method::kNewton;
  cold.stats = &cold_stats;
  const auto cold_solution = solver.solve(procs, cold);
  ASSERT_GT(cold_stats.iterations, 0);

  // Perturb one process slightly (a small profile delta) and re-solve
  // seeded from the previous equilibrium.
  std::vector<FeatureVector> nudged = procs;
  nudged[0].beta *= 1.02;
  const std::vector<double> seed{cold_solution[0].effective_size,
                                 cold_solution[1].effective_size};
  SolveStats warm_stats;
  SolveOptions warm;
  warm.method = SolveOptions::Method::kNewton;
  warm.warm_start = seed;
  warm.stats = &warm_stats;
  const auto warm_solution = solver.solve(nudged, warm);

  SolveStats renudged_cold_stats;
  SolveOptions renudged_cold;
  renudged_cold.method = SolveOptions::Method::kNewton;
  renudged_cold.stats = &renudged_cold_stats;
  const auto cold_again = solver.solve(nudged, renudged_cold);

  // Same fixed point, fewer iterations.
  for (std::size_t i = 0; i < procs.size(); ++i)
    EXPECT_NEAR(warm_solution[i].effective_size,
                cold_again[i].effective_size, 1e-4);
  EXPECT_LE(warm_stats.iterations, renudged_cold_stats.iterations);
  EXPECT_LE(warm_stats.iterations, 3);
}

TEST(WarmStart, BisectionAcceptsSeedsAndStats) {
  const EquilibriumSolver solver(16);
  const std::vector<FeatureVector> procs{worker(), sprinter()};
  SolveStats cold_stats;
  SolveOptions cold;
  cold.stats = &cold_stats;
  const auto cold_solution = solver.solve(procs, cold);

  const std::vector<double> seed{cold_solution[0].effective_size,
                                 cold_solution[1].effective_size};
  SolveStats warm_stats;
  SolveOptions warm;
  warm.warm_start = seed;
  warm.stats = &warm_stats;
  const auto warm_solution = solver.solve(procs, warm);
  for (std::size_t i = 0; i < procs.size(); ++i)
    EXPECT_NEAR(warm_solution[i].effective_size,
                cold_solution[i].effective_size, 1e-6);
  EXPECT_LE(warm_stats.iterations, cold_stats.iterations);

  // Seed-count mismatches are rejected.
  SolveOptions bad;
  bad.warm_start = std::span<const double>(seed.data(), 1);
  EXPECT_THROW(solver.solve(procs, bad), Error);
}

}  // namespace
}  // namespace repro::core

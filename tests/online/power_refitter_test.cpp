#include "repro/online/power_refitter.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "repro/common/rng.hpp"
#include "repro/engine/model_engine.hpp"
#include "repro/online/sharded_pipeline.hpp"
#include "repro/sim/machine.hpp"

namespace repro::online {
namespace {

constexpr std::uint32_t kCores = 2;

core::PowerModel calibrated() {
  return core::PowerModel(40.0, {6.0e-9, 2.2e-8, -1.0e-7, 4.5e-9, 5.5e-9},
                          kCores);
}

/// Event rates drawn from a plausible operating envelope so the design
/// matrix is well-conditioned.
hpc::EventRates random_rates(Rng& rng) {
  hpc::EventRates r;
  r.l1rps = rng.uniform(1.0e8, 2e9);
  r.l2rps = rng.uniform(1.0e7, 4.0e8);
  r.l2mps = rng.uniform(1.0e5, 8.0e7);
  r.brps = rng.uniform(5.0e7, 1e9);
  r.fpps = rng.uniform(1.0e6, 5.0e8);
  return r;
}

double model_power(const core::PowerModel& m, const hpc::EventRates& total) {
  const std::array<double, 5> x = total.regressors();
  double p = m.idle_total();
  for (std::size_t i = 0; i < x.size(); ++i) p += m.coefficients()[i] * x[i];
  return p;
}

sim::Sample sample_with(double t, const hpc::EventRates& rates,
                        double measured) {
  sim::Sample s;
  s.time = t;
  s.duration = 0.03;
  s.core_rates.assign(1, rates);
  s.core_rates.resize(kCores);  // second core idle
  s.measured_power = measured;
  return s;
}

PowerRefitOptions fast_refit() {
  PowerRefitOptions o;
  o.enabled = true;
  o.window = 64;
  o.refit_interval = 8;
  o.min_fit_windows = 16;
  return o;
}

TEST(PowerRefitter, DisabledRefitterProposesNothing) {
  Rng rng(31);
  PowerRefitOptions off;  // enabled defaults to false
  PowerRefitter refit(kCores, off);
  const core::PowerModel incumbent = calibrated();
  for (int i = 0; i < 200; ++i) {
    const hpc::EventRates r = random_rates(rng);
    EXPECT_FALSE(
        refit.push(sample_with(0.03 * i, r, model_power(incumbent, r)),
                   incumbent)
            .has_value());
  }
  EXPECT_EQ(refit.window_samples(), 0u);
}

TEST(PowerRefitter, SkipsWindowsWithoutGroundTruth) {
  Rng rng(32);
  PowerRefitter refit(kCores, fast_refit());
  const core::PowerModel incumbent = calibrated();
  const hpc::EventRates r = random_rates(rng);
  EXPECT_FALSE(refit.push(sample_with(0.0, r, 0.0), incumbent).has_value());
  EXPECT_FALSE(refit.push(sample_with(0.03, r, -5.0), incumbent).has_value());
  EXPECT_FALSE(
      refit
          .push(sample_with(0.06, r,
                            std::numeric_limits<double>::quiet_NaN()),
                incumbent)
          .has_value());
  EXPECT_EQ(refit.window_samples(), 0u);
  EXPECT_EQ(refit.skipped(), 3u);
}

TEST(PowerRefitter, RankDeficientWindowIsRefused) {
  // Constant rates are collinear with the fitted intercept: the
  // conditioning guard must refuse instead of returning garbage.
  Rng rng(33);
  PowerRefitter refit(kCores, fast_refit());
  const core::PowerModel incumbent = calibrated();
  hpc::EventRates constant = random_rates(rng);
  bool saw_attempt = false;
  for (int i = 0; i < 64; ++i) {
    const auto attempt = refit.push(
        sample_with(0.03 * i, constant, 55.0 + 0.01 * i), incumbent);
    if (attempt.has_value()) {
      saw_attempt = true;
      EXPECT_FALSE(attempt->accepted);
      EXPECT_TRUE(attempt->rank_deficient);
      EXPECT_FALSE(attempt->reason.empty());
    }
  }
  EXPECT_TRUE(saw_attempt);
}

TEST(PowerRefitter, CleanStreamIsQualityGatedNotChurned) {
  // Samples generated by the incumbent itself: a candidate can match
  // but not beat it, and pure-noise targets must be rejected. Either
  // way the incumbent's error over the window never regresses.
  Rng rng(34);
  PowerRefitter refit(kCores, fast_refit());
  const core::PowerModel incumbent = calibrated();
  for (int i = 0; i < 128; ++i) {
    const hpc::EventRates r = random_rates(rng);
    // Heavy multiplicative noise: no linear model explains it well.
    const double garbled =
        model_power(incumbent, r) * rng.uniform(0.2, 5.0);
    const auto attempt =
        refit.push(sample_with(0.03 * i, r, garbled), incumbent);
    if (attempt.has_value() && !attempt->accepted) {
      EXPECT_FALSE(attempt->reason.empty());
    }
  }
}

TEST(PowerRefitter, TracksInjectedCoefficientDrift) {
  Rng rng(35);
  PowerRefitter refit(kCores, fast_refit());
  const core::PowerModel incumbent = calibrated();
  // The "true" hardware drifted away from the calibration.
  const core::PowerModel drifted(
      44.0, {8.1e-9, 1.65e-8, -7.5e-8, 4.95e-9, 6.05e-9}, kCores);
  std::optional<PowerRefitAttempt> last_accepted;
  for (int i = 0; i < 200; ++i) {
    const hpc::EventRates r = random_rates(rng);
    const double measured =
        model_power(drifted, r) + rng.normal(0.0, 0.05);
    auto attempt = refit.push(sample_with(0.03 * i, r, measured), incumbent);
    if (attempt.has_value() && attempt->accepted)
      last_accepted = std::move(attempt);
  }
  ASSERT_TRUE(last_accepted.has_value());
  ASSERT_TRUE(last_accepted->model.has_value());
  // The accepted candidate recovered the drifted model, and its window
  // error is far below the stale incumbent's.
  EXPECT_NEAR(last_accepted->model->idle_total(), 44.0, 0.5);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_NEAR(last_accepted->model->coefficients()[i],
                drifted.coefficients()[i],
                std::fabs(drifted.coefficients()[i]) * 0.05 + 1e-12)
        << "coefficient " << i;
  EXPECT_LT(last_accepted->candidate_err_pct,
            0.2 * last_accepted->incumbent_err_pct);
  EXPECT_GT(last_accepted->fit.r2, 0.99);
}

TEST(SingleLanePipelinePower, RefitFlowsThroughEngineAndHistory) {
  Rng rng(36);
  const sim::MachineConfig machine = sim::two_core_workstation();
  engine::ModelEngine eng(machine, calibrated());
  ShardedPipelineOptions options;
  options.power = fast_refit();
  ShardedPipeline pipe(eng, options);

  const core::PowerModel drifted(
      46.0, {7.2e-9, 2.6e-8, -1.2e-7, 5.4e-9, 6.6e-9}, kCores);
  for (int i = 0; i < 200; ++i) {
    const hpc::EventRates r = random_rates(rng);
    pipe.push(sample_with(0.03 * (i + 1), r, model_power(drifted, r)));
  }

  const PipelineStats stats = pipe.snapshot().stats;
  EXPECT_GT(stats.power_revisions, 0u);
  EXPECT_EQ(eng.power_revision(), stats.power_revisions);
  EXPECT_NEAR(eng.power_model().idle_total(), 46.0, 0.5);

  // The unified event log carries the applied revisions, seq-keyed in
  // the same cursor space as profile revisions and pollable.
  const auto events = pipe.events();
  ASSERT_FALSE(events.empty());
  std::uint64_t applied = 0;
  for (const auto& e : events) {
    ASSERT_TRUE(e.is_power());
    if (e.power().applied) ++applied;
  }
  EXPECT_EQ(applied, stats.power_revisions);
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);

  // Cursor polling matches the full snapshot.
  const auto tail = pipe.events_since(events.back().seq);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail.back().seq, events.back().seq);
  EXPECT_TRUE(pipe.events_since(events.back().seq + 1).empty());
}

TEST(SingleLanePipelinePower, QualityGateKeepsLastGoodModel) {
  Rng rng(37);
  const sim::MachineConfig machine = sim::two_core_workstation();
  engine::ModelEngine eng(machine, calibrated());
  ShardedPipelineOptions options;
  options.power = fast_refit();
  ShardedPipeline pipe(eng, options);

  const core::PowerModel before = eng.power_model();
  for (int i = 0; i < 200; ++i) {
    const hpc::EventRates r = random_rates(rng);
    // Uncorrelated noise: every candidate fails the R²/no-regression
    // gates, so the calibrated model must survive untouched.
    pipe.push(sample_with(0.03 * (i + 1), r, rng.uniform(20.0, 200.0)));
  }
  EXPECT_EQ(eng.power_revision(), 0u);
  EXPECT_EQ(pipe.snapshot().stats.power_revisions, 0u);
  EXPECT_GT(pipe.snapshot().stats.power_rejected, 0u);
  EXPECT_EQ(eng.power_model().idle_total(), before.idle_total());
  EXPECT_EQ(eng.power_model().coefficients(), before.coefficients());
}

TEST(SingleLanePipelinePower, DisabledRefitLeavesEngineUntouched) {
  Rng rng(38);
  const sim::MachineConfig machine = sim::two_core_workstation();
  engine::ModelEngine eng(machine, calibrated());
  ShardedPipeline pipe(eng);  // power.enabled defaults to false

  const core::PowerModel drifted(
      46.0, {7.2e-9, 2.6e-8, -1.2e-7, 5.4e-9, 6.6e-9}, kCores);
  for (int i = 0; i < 100; ++i) {
    const hpc::EventRates r = random_rates(rng);
    pipe.push(sample_with(0.03 * (i + 1), r, model_power(drifted, r)));
  }
  EXPECT_EQ(eng.power_revision(), 0u);
  EXPECT_TRUE(pipe.events().empty());
  EXPECT_EQ(pipe.snapshot().stats.power_revisions, 0u);
  EXPECT_EQ(pipe.snapshot().stats.power_rejected, 0u);
  EXPECT_EQ(eng.power_model().coefficients(), calibrated().coefficients());
}

}  // namespace
}  // namespace repro::online

#include "repro/core/power_model.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "repro/math/stats.hpp"
#include "repro/sim/system.hpp"
#include "repro/workload/generator.hpp"

namespace repro::core {
namespace {

PowerTrainerOptions fast_options() {
  PowerTrainerOptions o;
  o.warmup = 0.02;
  o.run_per_workload = 0.24;
  o.run_per_microbench = 0.09;
  o.run_idle = 0.3;
  return o;
}

const PowerModel& workstation_model() {
  static const PowerModel model = PowerModel::train(
      sim::two_core_workstation(), power::oracle_for_two_core_workstation(),
      {"gzip", "mcf", "art", "equake"}, fast_options());
  return model;
}

TEST(PowerModelFit, RecoversSyntheticLinearModel) {
  // Direct Eq. 9 sanity on constructed data.
  PowerTrainingSet data;
  const std::size_t n = 60;
  data.regressors = math::Matrix(n, 5);
  data.power.resize(n);
  Rng rng(12);
  const double truth[5] = {5e-9, 2e-8, -2e-7, 4e-9, 5e-9};
  for (std::size_t r = 0; r < n; ++r) {
    double p = 30.0;
    for (std::size_t c = 0; c < 5; ++c) {
      data.regressors(r, c) = rng.uniform(0.0, 1e8);
      p += truth[c] * data.regressors(r, c);
    }
    data.power[r] = p;
  }
  const PowerModel model = PowerModel::fit(data, 2);
  EXPECT_NEAR(model.idle_total(), 30.0, 1e-6);
  for (std::size_t c = 0; c < 5; ++c)
    EXPECT_NEAR(model.coefficients()[c] / truth[c], 1.0, 1e-6);
}

TEST(PowerModelTraining, IdleInterceptNearOracleIdle) {
  // The intercept absorbs part of the oracle's hidden IPS term, so it
  // sits a watt or two above the true idle — like a real fitted model.
  EXPECT_NEAR(workstation_model().idle_total(), 26.0, 2.5);
}

TEST(PowerModelTraining, L2MissCoefficientIsNegative) {
  // §4.2: "c3 is negative" — stalled cores burn less power.
  EXPECT_LT(workstation_model().coefficients()[2], 0.0);
}

TEST(PowerModelTraining, ActivityCoefficientsArePositive) {
  const auto& c = workstation_model().coefficients();
  EXPECT_GT(c[0], 0.0);  // L1RPS
  EXPECT_GT(c[3], 0.0);  // BRPS
  EXPECT_GT(c[4], 0.0);  // FPPS
}

TEST(PowerModelTraining, TrainingAccuracyInPaperBand) {
  // The paper reports 96.2% training accuracy for MVLR; our substrate
  // should land in the same >90% band.
  const PowerTrainingSet data = PowerModel::collect(
      sim::two_core_workstation(), power::oracle_for_two_core_workstation(),
      {"gzip", "mcf", "art", "equake"}, fast_options());
  const math::Mvlr::Fit fit = math::Mvlr::fit(data.regressors, data.power);
  EXPECT_GT(fit.accuracy, 90.0);
  EXPECT_GT(data.power.size(), 50u);
}

TEST(PowerModelValidation, PredictsUnseenMixedAssignment) {
  // Validate on an assignment the trainer never saw: two *different*
  // workloads co-running (training always ran N identical instances).
  const sim::MachineConfig machine = sim::two_core_workstation();
  sim::SystemConfig cfg;
  cfg.machine = machine;
  sim::System system(cfg, power::oracle_for_two_core_workstation(), 31);
  for (CoreId c = 0; c < 2; ++c) {
    const auto& spec = workload::find_spec(c == 0 ? "vpr" : "ammp");
    system.add_process(spec.name, c, spec.mix,
                       std::make_unique<workload::StackDistanceGenerator>(
                           spec, machine.l2.sets));
  }
  system.warm_up(0.03);
  const sim::RunResult run = system.run(0.3);

  std::vector<double> est, meas;
  for (const sim::Sample& s : run.samples) {
    est.push_back(workstation_model().predict(s.core_rates));
    meas.push_back(s.measured_power);
  }
  EXPECT_LT(math::mean_abs_pct_error(est, meas), 8.0);
}

TEST(PowerModelValidation, TracksIdleCores) {
  // One busy core, one idle: prediction must not assume symmetry.
  const sim::MachineConfig machine = sim::two_core_workstation();
  sim::SystemConfig cfg;
  cfg.machine = machine;
  sim::System system(cfg, power::oracle_for_two_core_workstation(), 32);
  const auto& spec = workload::find_spec("equake");
  system.add_process(spec.name, 0, spec.mix,
                     std::make_unique<workload::StackDistanceGenerator>(
                         spec, machine.l2.sets));
  system.warm_up(0.03);
  const sim::RunResult run = system.run(0.3);
  std::vector<double> est, meas;
  for (const sim::Sample& s : run.samples) {
    est.push_back(workstation_model().predict(s.core_rates));
    meas.push_back(s.measured_power);
  }
  EXPECT_LT(math::mean_abs_pct_error(est, meas), 8.0);
}

TEST(PowerModel, PredictAddsPerCoreDynamicPower) {
  const PowerModel model(40.0, {1e-9, 0.0, 0.0, 0.0, 0.0}, 4);
  hpc::EventRates r;
  r.l1rps = 1e9;
  std::vector<hpc::EventRates> cores(4);
  cores[0] = r;
  EXPECT_DOUBLE_EQ(model.predict(cores), 41.0);
  EXPECT_DOUBLE_EQ(model.idle_core(), 10.0);
  EXPECT_DOUBLE_EQ(model.dynamic_power(r), 1.0);
}

TEST(PowerModel, RejectsBadConstruction) {
  EXPECT_THROW(PowerModel(0.0, {}, 2), Error);
  EXPECT_THROW(PowerModel(10.0, {}, 0), Error);
}

}  // namespace
}  // namespace repro::core

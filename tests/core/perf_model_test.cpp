#include "repro/core/perf_model.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "repro/core/analytic.hpp"
#include "repro/sim/system.hpp"
#include "repro/workload/generator.hpp"

namespace repro::core {
namespace {

FeatureVector make_fv(std::string name, ReuseHistogram hist, double api,
                      double alpha, double beta) {
  FeatureVector fv;
  fv.name = std::move(name);
  fv.histogram = std::move(hist);
  fv.api = api;
  fv.alpha = alpha;
  fv.beta = beta;
  return fv;
}

FeatureVector light_process() {
  // Shallow working set, low API.
  return make_fv("light", ReuseHistogram({0.6, 0.25, 0.1}, 0.05), 0.005,
                 4.0e-10, 4.0e-10);
}

FeatureVector heavy_process() {
  // Deep reuse, high API: a cache hog.
  return make_fv("heavy",
                 ReuseHistogram(std::vector<double>(12, 0.07), 0.16), 0.05,
                 4.0e-9, 6.0e-10);
}

TEST(FeatureVector, ValidatesPhysicalRanges) {
  EXPECT_NO_THROW(light_process().validate());
  FeatureVector bad = light_process();
  bad.api = 0.0;
  EXPECT_THROW(bad.validate(), Error);
  bad = light_process();
  bad.beta = 0.0;
  EXPECT_THROW(bad.validate(), Error);
  bad = light_process();
  bad.alpha = -1.0;
  EXPECT_THROW(bad.validate(), Error);
}

TEST(FeatureVector, SpiLawIsLinear) {
  const FeatureVector fv = light_process();
  EXPECT_DOUBLE_EQ(fv.spi_at(0.0), fv.beta);
  EXPECT_DOUBLE_EQ(fv.spi_at(0.5), fv.alpha * 0.5 + fv.beta);
}

TEST(FeatureVector, RescalesSpiExactlyAcrossClocks) {
  FeatureVector fv = light_process();
  fv.fit_frequency = 2e9;
  // Eq. 3's 1/f factor: halving the clock exactly doubles SPI at any
  // MPA, and the cycles form is the frequency-free invariant.
  EXPECT_DOUBLE_EQ(fv.spi_at(0.3, 1e9), 2.0 * fv.spi_at(0.3));
  EXPECT_DOUBLE_EQ(fv.spi_at(0.3, fv.fit_frequency), fv.spi_at(0.3));
  EXPECT_DOUBLE_EQ(fv.alpha_cycles(), fv.alpha * 2e9);
  EXPECT_DOUBLE_EQ(fv.beta_cycles(), fv.beta * 2e9);

  const FeatureVector slow = fv.at_frequency(1e9);
  EXPECT_DOUBLE_EQ(slow.alpha, 2.0 * fv.alpha);
  EXPECT_DOUBLE_EQ(slow.beta, 2.0 * fv.beta);
  EXPECT_DOUBLE_EQ(slow.fit_frequency, 1e9);
  // Frequency-free parts are untouched; a round trip is exact.
  EXPECT_DOUBLE_EQ(slow.api, fv.api);
  const FeatureVector back = slow.at_frequency(2e9);
  EXPECT_DOUBLE_EQ(back.alpha_cycles(), fv.alpha_cycles());
  EXPECT_DOUBLE_EQ(back.beta_cycles(), fv.beta_cycles());
}

TEST(FeatureVector, OwnClockRescaleIsBitIdentical) {
  FeatureVector fv = heavy_process();
  fv.fit_frequency = 24e8;
  const FeatureVector same = fv.at_frequency(fv.fit_frequency);
  EXPECT_EQ(same.alpha, fv.alpha);
  EXPECT_EQ(same.beta, fv.beta);
  EXPECT_EQ(same.fit_frequency, fv.fit_frequency);
}

TEST(FeatureVector, LegacyVectorRefusesExplicitRescaling) {
  // fit_frequency == 0 marks a pre-DVFS store: it must keep answering
  // plain spi_at() but refuse any operation that needs the clock.
  const FeatureVector fv = light_process();
  EXPECT_DOUBLE_EQ(fv.spi_at(0.2), fv.alpha * 0.2 + fv.beta);
  EXPECT_THROW(fv.spi_at(0.2, 1e9), Error);
  EXPECT_THROW(fv.alpha_cycles(), Error);
  EXPECT_THROW(fv.at_frequency(1e9), Error);
  EXPECT_THROW(fv.beta_cycles(), Error);
}

TEST(EquilibriumSolver, SingleProcessGetsWholeCache) {
  const EquilibriumSolver solver(16);
  const auto pred = solver.solve({heavy_process()});
  ASSERT_EQ(pred.size(), 1u);
  EXPECT_DOUBLE_EQ(pred[0].effective_size, 16.0);
  EXPECT_NEAR(pred[0].mpa, heavy_process().histogram.mpa(16.0), 1e-12);
}

TEST(EquilibriumSolver, IdenticalProcessesSplitEvenly) {
  const EquilibriumSolver solver(16);
  const auto pred = solver.solve({heavy_process(), heavy_process()});
  ASSERT_EQ(pred.size(), 2u);
  EXPECT_NEAR(pred[0].effective_size, 8.0, 1e-6);
  EXPECT_NEAR(pred[1].effective_size, 8.0, 1e-6);
}

TEST(EquilibriumSolver, SizesSumToAssociativity) {
  const EquilibriumSolver solver(16);
  for (const auto& pair :
       {std::pair{light_process(), heavy_process()},
        std::pair{heavy_process(), heavy_process()},
        std::pair{light_process(), light_process()}}) {
    const auto pred = solver.solve({pair.first, pair.second});
    EXPECT_NEAR(pred[0].effective_size + pred[1].effective_size, 16.0, 1e-6);
  }
}

TEST(EquilibriumSolver, CacheHogTakesLargerShare) {
  const EquilibriumSolver solver(16);
  const auto pred = solver.solve({light_process(), heavy_process()});
  EXPECT_GT(pred[1].effective_size, pred[0].effective_size + 2.0);
}

TEST(EquilibriumSolver, ContentionNeverImprovesMpa) {
  const EquilibriumSolver solver(16);
  const auto alone = solver.solve({heavy_process()});
  const auto pair = solver.solve({heavy_process(), light_process()});
  EXPECT_GE(pair[0].mpa, alone[0].mpa - 1e-9);
}

TEST(EquilibriumSolver, ThreeWayContentionSumsToA) {
  const EquilibriumSolver solver(16);
  const auto pred =
      solver.solve({light_process(), heavy_process(), heavy_process()});
  double sum = 0.0;
  for (const auto& p : pred) sum += p.effective_size;
  EXPECT_NEAR(sum, 16.0, 1e-6);
  // The two identical heavy processes must get equal shares.
  EXPECT_NEAR(pred[1].effective_size, pred[2].effective_size, 1e-6);
}

TEST(EquilibriumSolver, FourWayContentionIsStable) {
  const EquilibriumSolver solver(16);
  const auto pred = solver.solve(
      {light_process(), heavy_process(), light_process(), heavy_process()});
  double sum = 0.0;
  for (const auto& p : pred) {
    EXPECT_GT(p.effective_size, 0.0);
    EXPECT_GT(p.spi, 0.0);
    sum += p.effective_size;
  }
  EXPECT_NEAR(sum, 16.0, 1e-6);
}

TEST(EquilibriumSolver, NewtonAgreesWithBisection) {
  const EquilibriumSolver solver(16);
  const std::vector<FeatureVector> procs{light_process(), heavy_process()};
  const auto robust = solver.solve(procs);
  const auto newton = solver.solve(
      procs, SolveOptions{.method = SolveOptions::Method::kNewton});
  for (std::size_t i = 0; i < procs.size(); ++i) {
    EXPECT_NEAR(newton[i].effective_size, robust[i].effective_size, 0.05);
    EXPECT_NEAR(newton[i].mpa, robust[i].mpa, 0.005);
  }
}

TEST(EquilibriumSolver, PredictionsSatisfyEq7) {
  // Check the paper's equilibrium condition directly on the solution:
  // G⁻¹(S_i) / APS_i must be equal across processes.
  const EquilibriumSolver solver(16);
  const std::vector<FeatureVector> procs{light_process(), heavy_process()};
  const auto pred = solver.solve(procs);
  std::vector<double> horizon(procs.size());
  for (std::size_t i = 0; i < procs.size(); ++i) {
    const math::PiecewiseLinear g = fill_curve(procs[i].histogram, 16);
    horizon[i] = g(pred[i].effective_size) / pred[i].aps;
  }
  EXPECT_NEAR(horizon[0] / horizon[1], 1.0, 0.02);
}

TEST(EquilibriumSolver, RejectsDegenerateInputs) {
  const EquilibriumSolver solver(16);
  EXPECT_THROW(solver.solve(std::vector<FeatureVector>{}), Error);
  EXPECT_THROW(solver.solve(std::span<const SolverInput>{}), Error);
  EXPECT_THROW(EquilibriumSolver(0), Error);
}

TEST(AnalyticFeatures, UsesPerCoreClockNotMachineDefault) {
  // Regression for the uniform-frequency Eq. 3 bug: analytic α/β used
  // to divide by the machine-wide default clock even when the target
  // core ran at another frequency. On a half-speed core the law has
  // half the frequency in the denominator, so α and β must double —
  // the uniform-frequency code returns identical vectors for both
  // cores and fails these assertions.
  sim::MachineConfig machine = sim::two_core_workstation();
  machine.core_frequency = {machine.frequency, machine.frequency / 2};
  machine.validate();
  const workload::WorkloadSpec& spec = workload::find_spec("gzip");
  const FeatureVector fast = analytic_features_for_core(spec, machine, 0);
  const FeatureVector slow = analytic_features_for_core(spec, machine, 1);
  EXPECT_DOUBLE_EQ(slow.alpha, 2.0 * fast.alpha);
  EXPECT_DOUBLE_EQ(slow.beta, 2.0 * fast.beta);
  EXPECT_DOUBLE_EQ(fast.fit_frequency, machine.frequency);
  EXPECT_DOUBLE_EQ(slow.fit_frequency, machine.frequency / 2);
  // The frequency-free invariant is shared; the seconds form is not.
  EXPECT_DOUBLE_EQ(slow.alpha_cycles(), fast.alpha_cycles());
  EXPECT_DOUBLE_EQ(slow.beta_cycles(), fast.beta_cycles());
}

TEST(AnalyticFeatures, HeterogeneousPredictionMatchesSimulation) {
  // End-to-end form of the same regression: alone on a half-speed
  // core, measured SPI doubles. Features fitted at the core's clock
  // track it; the old uniform-frequency features would sit at ~50% of
  // the measured value and miss the 12% band by a factor of two.
  sim::MachineConfig machine = sim::two_core_workstation();
  machine.core_frequency = {machine.frequency, machine.frequency / 2};
  const workload::WorkloadSpec& spec = workload::find_spec("gzip");
  const EquilibriumSolver solver(machine.l2.ways);
  const auto pred =
      solver.solve({analytic_features_for_core(spec, machine, 1)});

  sim::SystemConfig cfg;
  cfg.machine = machine;
  sim::System system(cfg, power::oracle_for_two_core_workstation(), 78);
  system.add_process(spec.name, 1, spec.mix,
                     std::make_unique<workload::StackDistanceGenerator>(
                         spec, machine.l2.sets));
  system.warm_up(0.05);
  const sim::RunResult run = system.run(0.1);
  EXPECT_NEAR(pred[0].spi / run.process(0).spi(), 1.0, 0.12);
}

// --- Integration: predictions vs. simulated ground truth. -------------

// The names are held by value, not as pointers: gtest prints the
// parameter's raw bytes into the test name, and pointer bytes move with
// the binary's layout while these stay the same in every build.
struct PairCase {
  char a[8];
  char b[8];
};

class EquilibriumVsSimulation : public ::testing::TestWithParam<PairCase> {};

TEST_P(EquilibriumVsSimulation, PredictsPairedMpaAndSpi) {
  const PairCase param = GetParam();
  const sim::MachineConfig machine = sim::four_core_server();
  const workload::WorkloadSpec& wa = workload::find_spec(param.a);
  const workload::WorkloadSpec& wb = workload::find_spec(param.b);

  // Model side: analytic feature vectors → equilibrium prediction.
  const EquilibriumSolver solver(machine.l2.ways);
  const auto pred = solver.solve({analytic_features(wa, machine),
                                  analytic_features(wb, machine)});

  // Measured side: co-run on two cache-sharing cores.
  sim::SystemConfig cfg;
  cfg.machine = machine;
  sim::System system(cfg, power::oracle_for_four_core_server(), 77);
  system.add_process(wa.name, 0, wa.mix,
                     std::make_unique<workload::StackDistanceGenerator>(
                         wa, machine.l2.sets));
  system.add_process(wb.name, 1, wb.mix,
                     std::make_unique<workload::StackDistanceGenerator>(
                         wb, machine.l2.sets));
  system.warm_up(0.05);
  const sim::RunResult run = system.run(0.1);

  for (ProcessId pid : {0u, 1u}) {
    const sim::ProcessReport& report = run.process(pid);
    EXPECT_NEAR(pred[pid].mpa, report.mpa(), 0.06)
        << report.name << " MPA (pred " << pred[pid].mpa << ")";
    EXPECT_NEAR(pred[pid].spi / report.spi(), 1.0, 0.12)
        << report.name << " SPI";
  }
}

INSTANTIATE_TEST_SUITE_P(
    SuitePairs, EquilibriumVsSimulation,
    ::testing::Values(PairCase{"gzip", "mcf"}, PairCase{"vpr", "art"},
                      PairCase{"mcf", "art"}, PairCase{"twolf", "equake"},
                      PairCase{"ammp", "bzip2"}),
    [](const ::testing::TestParamInfo<PairCase>& info) {
      return std::string(info.param.a) + "_" + info.param.b;
    });

}  // namespace
}  // namespace repro::core

// Model-evaluation latency microbenchmarks (google-benchmark).
//
// The paper's central claim is that the framework is *fast enough for
// on-line use* during process assignment: pricing one of the 2^k − 1
// co-schedule subsets must cost microseconds, not simulation hours.
// These benchmarks quantify the costs that claim rests on: MPA curve
// evaluation, fill-curve construction and lookup, the on-line
// sanitizer's window filter, the equilibrium solve (both solver
// variants), one engine what-if candidate, the §5 combined power
// estimate, and assignment enumeration.
#include <benchmark/benchmark.h>

#include <memory>

#include "repro/core/analytic.hpp"
#include "repro/core/perf_model.hpp"
#include "repro/engine/assignment.hpp"
#include "repro/online/sanitizer.hpp"
#include "repro/sim/machine.hpp"
#include "repro/workload/spec.hpp"

namespace repro::bench {
namespace {

const sim::MachineConfig& machine() {
  static const sim::MachineConfig m = sim::four_core_server();
  return m;
}

std::vector<core::FeatureVector> features(std::size_t k) {
  const auto& suite = workload::spec_suite();
  std::vector<core::FeatureVector> out;
  for (std::size_t i = 0; i < k; ++i)
    out.push_back(core::analytic_features(suite[i % suite.size()],
                                          machine()));
  return out;
}

std::vector<core::ProcessProfile> synthetic_profiles(std::size_t k) {
  std::vector<core::ProcessProfile> out;
  const auto fvs = features(k);
  for (const core::FeatureVector& fv : fvs) {
    core::ProcessProfile p;
    p.name = fv.name;
    p.features = fv;
    p.alone.l1rpi = 0.33;
    p.alone.l2rpi = fv.api;
    p.alone.brpi = 0.15;
    p.alone.fppi = 0.05;
    p.alone.l2mpr = fv.histogram.mpa(machine().l2.ways);
    p.alone.spi = fv.spi_at(p.alone.l2mpr);
    p.power_alone = 50.0;
    out.push_back(std::move(p));
  }
  return out;
}

core::PowerModel power_model() {
  return core::PowerModel(45.0,
                          {6.0e-9, 2.2e-8, -3.0e-7, 4.5e-9, 5.5e-9}, 4);
}

void BM_MpaCurveEval(benchmark::State& state) {
  const core::FeatureVector fv = features(1)[0];
  double s = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fv.histogram.mpa(s));
    s = s < 15.0 ? s + 0.37 : 0.1;
  }
}
BENCHMARK(BM_MpaCurveEval);

void BM_FillCurveBuild(benchmark::State& state) {
  const core::FeatureVector fv = features(1)[0];
  for (auto _ : state)
    benchmark::DoNotOptimize(
        core::fill_curve(fv.histogram, machine().l2.ways));
}
BENCHMARK(BM_FillCurveBuild);

/// G⁻¹(S) lookups at scattered sizes, as the solvers evaluate it: the
/// 1,025-knot curve of a 16-way cache.
void BM_FillCurveEval(benchmark::State& state) {
  const core::FeatureVector fv = features(1)[0];
  const math::PiecewiseLinear g =
      core::fill_curve(fv.histogram, machine().l2.ways);
  double s = 0.05;
  for (auto _ : state) {
    benchmark::DoNotOptimize(g(s));
    s = s < 15.5 ? s + 0.37 : 0.05;
  }
}
BENCHMARK(BM_FillCurveEval);

/// One die slice of a four-process die on the 8-process server layout
/// (the other die's slots idle, as System::split_sample leaves them),
/// through a sanitizer whose 16-window MAD history is already full.
void BM_SanitizeWindow(benchmark::State& state) {
  constexpr std::size_t kPids = 8;
  constexpr std::size_t kCycle = 64;
  std::vector<sim::Sample> windows(kCycle);
  for (std::size_t w = 0; w < kCycle; ++w) {
    sim::Sample& s = windows[w];
    s.duration = 0.03;
    s.core_rates.resize(machine().cores);
    s.occupancy.assign(kPids, 0.0);
    s.process_cpu.assign(kPids, 0.0);
    s.process_delta.resize(kPids);
    for (std::size_t pid = 0; pid < kPids / 2; ++pid) {
      // Small per-window jitter keeps the rolling windows moving.
      const double jitter = 1.0 + 0.01 * static_cast<double>((w + pid) % 7);
      hpc::Counters& d = s.process_delta[pid];
      d.instructions = 1.0e6;
      d.cycles = 2.0e6;
      d.l1_refs = 3.0e5;
      d.l2_refs = 2.0e4;
      d.l2_misses = 4.0e3 * jitter;
      d.branches = 1.0e5;
      d.fp_ops = 5.0e4;
      s.occupancy[pid] = 4.0;
      s.process_cpu[pid] = 0.002 * jitter;
    }
  }
  online::SampleSanitizer sanitizer;
  sim::Sample out;
  double t = 0.0;
  std::size_t w = 0;
  for (; w < 2 * sanitizer.options().outlier_window; ++w) {
    windows[w % kCycle].time = t += 0.03;
    sanitizer.sanitize(windows[w % kCycle], &out);
  }
  for (auto _ : state) {
    sim::Sample& s = windows[w++ % kCycle];
    s.time = t += 0.03;
    benchmark::DoNotOptimize(sanitizer.sanitize(s, &out));
  }
}
BENCHMARK(BM_SanitizeWindow);

void BM_EquilibriumSolve(benchmark::State& state) {
  const auto fvs = features(static_cast<std::size_t>(state.range(0)));
  const core::EquilibriumSolver solver(machine().l2.ways);
  for (auto _ : state) benchmark::DoNotOptimize(solver.solve(fvs));
}
BENCHMARK(BM_EquilibriumSolve)->Arg(2)->Arg(3)->Arg(4);

void BM_EquilibriumSolveNewton(benchmark::State& state) {
  const auto fvs = features(static_cast<std::size_t>(state.range(0)));
  const core::EquilibriumSolver solver(machine().l2.ways);
  const core::SolveOptions newton{.method =
                                      core::SolveOptions::Method::kNewton};
  for (auto _ : state) benchmark::DoNotOptimize(solver.solve(fvs, newton));
}
BENCHMARK(BM_EquilibriumSolveNewton)->Arg(2)->Arg(4);

/// Engine over `k` synthetic profiles; handles come back as 0..k-1.
std::unique_ptr<engine::ModelEngine> engine_of(std::size_t k) {
  auto eng = std::make_unique<engine::ModelEngine>(machine(), power_model());
  for (core::ProcessProfile& p : synthetic_profiles(k))
    eng->register_process(std::move(p));
  return eng;
}

/// One warmed what-if candidate as a governor prices it: 3 processes,
/// two time-sharing core 0 beside one on core 1, every core at the
/// lowest DVFS level instead of the default clock.
void BM_EnginePredictWhatIf(benchmark::State& state) {
  const auto eng = engine_of(3);
  engine::CoScheduleQuery q;
  q.assignment = core::Assignment::empty(machine().cores);
  q.assignment.per_core[0] = {0, 1};
  q.assignment.per_core[1] = {2};
  q.core_frequency.assign(machine().cores, machine().dvfs_levels.front());
  benchmark::DoNotOptimize(eng->predict(q));  // memoize the fill curves
  for (auto _ : state) benchmark::DoNotOptimize(eng->predict(q));
}
BENCHMARK(BM_EnginePredictWhatIf);

void BM_CombinedEstimate(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const auto eng = engine_of(k);
  const auto snap = eng->snapshot();
  core::Assignment a = core::Assignment::empty(machine().cores);
  for (std::size_t p = 0; p < k; ++p)
    a.per_core[p % machine().cores].push_back(p);
  for (auto _ : state)
    benchmark::DoNotOptimize(engine::estimate_eq10(*eng, *snap, a));
}
BENCHMARK(BM_CombinedEstimate)->Arg(2)->Arg(4)->Arg(8);

void BM_ExhaustiveAssignmentSearch(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const auto eng = engine_of(k);
  std::vector<engine::ProcessHandle> handles(k);
  for (std::size_t p = 0; p < k; ++p)
    handles[p] = static_cast<engine::ProcessHandle>(p);
  for (auto _ : state)
    benchmark::DoNotOptimize(engine::optimize_assignment(*eng, handles));
}
BENCHMARK(BM_ExhaustiveAssignmentSearch)->Arg(2)->Arg(4);

void BM_PowerModelPredict(benchmark::State& state) {
  const core::PowerModel model = power_model();
  std::vector<hpc::EventRates> rates(4);
  for (auto& r : rates) {
    r.l1rps = 7e8;
    r.l2rps = 2e7;
    r.l2mps = 3e6;
    r.brps = 3e8;
    r.fpps = 1e8;
  }
  for (auto _ : state) benchmark::DoNotOptimize(model.predict(rates));
}
BENCHMARK(BM_PowerModelPredict);

}  // namespace
}  // namespace repro::bench

BENCHMARK_MAIN();

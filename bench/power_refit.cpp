// bench_power_refit — drift gate for the on-line power refit path.
//
// One simulation produces a sample stream with real rate variation (a
// gzip target against a footprint-sweeping rival). The stream's clamp
// readings are then rewritten by a *drifted* Eq. 9 model — the
// calibrated coefficients no longer describe the hardware — and the
// stream is replayed into two pipelines seeded with the stale
// calibration: one with on-line refits enabled, one frozen.
//
// Gates (nonzero exit on violation):
//   1. no exception escapes either arm;
//   2. the frozen arm never touches the engine's model (revision 0,
//      coefficients bit-identical to the calibration);
//   3. the refit arm applies at least one revision through
//      try_apply and its revision counter matches the engine's;
//   4. once converged (final third of the stream), the refit arm's
//      live measured-vs-predicted error is a fraction of the frozen
//      arm's — the refit tracked the drift the frozen model can't;
//   5. the refit arm's final model reprices the whole stream close to
//      the drifted ground truth (well under the stale model's error).
#include <array>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "repro/common/ensure.hpp"
#include "repro/common/rng.hpp"
#include "repro/core/power_model.hpp"
#include "repro/engine/model_engine.hpp"
#include "repro/math/stats.hpp"
#include "repro/online/sharded_pipeline.hpp"
#include "repro/sim/system.hpp"
#include "repro/workload/generator.hpp"
#include "repro/workload/spec.hpp"

namespace {

using namespace repro;

struct ArmResult {
  bool threw = false;
  std::string error;
  /// Live measured-vs-predicted error of the engine's *current* model
  /// at each window, in stream order (the error a watcher would see).
  std::vector<double> window_err_pct;
  std::uint64_t revisions = 0;
  std::uint64_t rejected = 0;
  std::uint64_t engine_revision = 0;
  core::PowerModel final_model{1.0, {}, 1};
};

constexpr double kErrFloorWatts = 1e-3;

ArmResult run_arm(const sim::MachineConfig& machine,
                  const core::PowerModel& calibrated,
                  const std::vector<sim::Sample>& samples, bool refit) {
  engine::EngineOptions eng_options;
  eng_options.threads = 1;
  engine::ModelEngine eng(machine, calibrated, eng_options);

  online::ShardedPipelineOptions popt;
  popt.power.enabled = refit;
  popt.power.window = 64;
  popt.power.refit_interval = 8;
  popt.power.min_fit_windows = 16;
  online::ShardedPipeline pipe(eng, popt);

  ArmResult r;
  r.final_model = calibrated;
  try {
    for (const sim::Sample& s : samples) {
      pipe.push(s);
      const double predicted = eng.power_model().predict(s.core_rates);
      r.window_err_pct.push_back(
          100.0 * math::relative_error_floored(predicted, s.measured_power,
                                               kErrFloorWatts));
    }
    pipe.finish();
  } catch (const Error& e) {
    r.threw = true;
    r.error = e.what();
  } catch (const std::exception& e) {
    r.threw = true;
    r.error = e.what();
  }
  for (const online::PipelineEvent& event : pipe.events())
    if (event.is_power() && !event.power().applied) {
      const online::PowerRevisionEvent& e = event.power();
      std::printf("  rejected @%.2fs: %s (r2 %.4f, cand %.2f%% vs "
                  "incumbent %.2f%%)\n",
                  e.time, e.reason.c_str(), e.r2, e.candidate_err_pct,
                  e.incumbent_err_pct);
    }
  const online::PipelineStats stats = pipe.snapshot().stats;
  r.revisions = stats.power_revisions;
  r.rejected = stats.power_rejected;
  r.engine_revision = eng.power_revision();
  r.final_model = eng.power_model();
  return r;
}

double mean_tail(const std::vector<double>& v, std::size_t tail) {
  REPRO_ENSURE(tail > 0 && tail <= v.size(), "bad tail length");
  double sum = 0.0;
  for (std::size_t i = v.size() - tail; i < v.size(); ++i) sum += v[i];
  return sum / static_cast<double>(tail);
}

}  // namespace

int main() {
  const bench::Platform platform = bench::workstation_platform();
  const sim::MachineConfig& machine = platform.machine;
  const core::PowerModel calibrated = bench::get_power_model(platform);
  const std::uint32_t sets = machine.l2.sets;

  // --- Simulate once: a multi-programmed mix of six distinct suite
  // workloads, three per core. Each process carries its own instruction
  // mix, and the 20 ms round-robin quantum against 30 ms sample windows
  // rotates which mixes dominate each window — exactly the diversity
  // Eq. 9 needs for an identifiable design (a single program's branch
  // and FP rates are near-collinear with its instruction rate, which is
  // why the paper trains across benchmarks, not within one). ---
  sim::SystemConfig cfg;
  cfg.machine = machine;
  sim::System system(cfg, platform.oracle, /*seed=*/0xd21f7ULL);
  const char* queue0[] = {"gzip", "art", "twolf"};
  const char* queue1[] = {"mcf", "equake", "vpr"};
  for (const char* name : queue0) {
    const workload::WorkloadSpec spec = workload::find_spec(name);
    system.add_process(
        name, 0, spec.mix,
        std::make_unique<workload::StackDistanceGenerator>(spec, sets));
  }
  for (const char* name : queue1) {
    const workload::WorkloadSpec spec = workload::find_spec(name);
    system.add_process(
        name, 1, spec.mix,
        std::make_unique<workload::StackDistanceGenerator>(spec, sets));
  }

  std::vector<sim::Sample> samples;
  system.run(2.4, [&](const sim::Sample& s) { samples.push_back(s); });

  // --- Inject coefficient drift: the "hardware" the clamp measures no
  // longer matches the calibration the engines are seeded with. ---
  const std::array<double, 5>& c0 = calibrated.coefficients();
  const core::PowerModel drifted(
      calibrated.idle_total() * 1.15,
      {c0[0] * 1.35, c0[1] * 0.70, c0[2] * 1.25, c0[3] * 0.75, c0[4] * 1.30},
      calibrated.cores());
  Rng noise(0xbeefULL);
  for (sim::Sample& s : samples)
    s.measured_power = drifted.predict(s.core_rates) + noise.normal(0.0, 0.05);
  std::printf("recorded %zu windows; drifted idle %.2f W (calibrated %.2f)\n",
              samples.size(), drifted.idle_total(), calibrated.idle_total());

  const ArmResult frozen =
      run_arm(machine, calibrated, samples, /*refit=*/false);
  const ArmResult refit = run_arm(machine, calibrated, samples, /*refit=*/true);

  bool ok = true;
  auto gate = [&](bool cond, const char* who, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "FAIL [%s]: %s\n", who, what);
      ok = false;
    }
  };

  gate(!frozen.threw, "frozen", "exception escaped the frozen arm");
  gate(!refit.threw, "refit", "exception escaped the refit arm");
  if (frozen.threw)
    std::fprintf(stderr, "       frozen threw: %s\n", frozen.error.c_str());
  if (refit.threw)
    std::fprintf(stderr, "       refit threw: %s\n", refit.error.c_str());
  if (frozen.threw || refit.threw) return 1;

  // The frozen arm must be exactly that: untouched calibration.
  gate(frozen.revisions == 0 && frozen.engine_revision == 0, "frozen",
       "a disabled refitter revised the engine's power model");
  gate(frozen.final_model.coefficients() == calibrated.coefficients(),
       "frozen", "frozen coefficients are not bit-identical");

  // The refit arm must have adopted candidates, through the engine.
  gate(refit.revisions > 0, "refit", "no refit was ever applied");
  gate(refit.engine_revision == refit.revisions, "refit",
       "pipeline and engine disagree on the applied revision count");

  // Converged tracking: over the final third of the stream the live
  // error of the refit arm is a fraction of the frozen arm's.
  const std::size_t tail = samples.size() / 3;
  const double frozen_tail = mean_tail(frozen.window_err_pct, tail);
  const double refit_tail = mean_tail(refit.window_err_pct, tail);
  std::printf("frozen : %3llu revisions, tail error %.2f%%\n",
              static_cast<unsigned long long>(frozen.revisions), frozen_tail);
  std::printf("refit  : %3llu revisions (%llu rejected), tail error %.2f%%\n",
              static_cast<unsigned long long>(refit.revisions),
              static_cast<unsigned long long>(refit.rejected), refit_tail);
  gate(frozen_tail > 2.0, "frozen",
       "injected drift too weak: the stale model still fits — the gate "
       "would pass even if refits did nothing");
  gate(refit_tail < 0.5 * frozen_tail, "refit",
       "converged refit error is not a fraction of the frozen error");

  // The adopted model reprices the whole stream near the drifted truth.
  double refit_vs_truth = 0.0;
  double frozen_vs_truth = 0.0;
  for (const sim::Sample& s : samples) {
    const double truth = drifted.predict(s.core_rates);
    refit_vs_truth += math::relative_error_floored(
        refit.final_model.predict(s.core_rates), truth, kErrFloorWatts);
    frozen_vs_truth += math::relative_error_floored(
        frozen.final_model.predict(s.core_rates), truth, kErrFloorWatts);
  }
  refit_vs_truth *= 100.0 / static_cast<double>(samples.size());
  frozen_vs_truth *= 100.0 / static_cast<double>(samples.size());
  std::printf("final model vs drifted truth: refit %.2f%%, frozen %.2f%%\n",
              refit_vs_truth, frozen_vs_truth);
  gate(refit_vs_truth < 0.25 * frozen_vs_truth, "refit",
       "final refit model does not track the drifted ground truth");

  if (ok) std::printf("all gates passed\n");
  return ok ? 0 : 1;
}

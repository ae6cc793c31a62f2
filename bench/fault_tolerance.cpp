// bench_fault_tolerance — chaos gate for the hardened on-line pipeline.
//
// One simulation produces a clean sample stream and its ground truth
// (the target's measured SPI). The stream is then replayed through a
// FaultInjector into fresh pipelines, one arm per fault class, plus a
// mixed-fault arm and an unhardened control on the identical stream.
//
// Gates (nonzero exit on violation):
//   1. no exception escapes sink()/finish() in any hardened arm;
//   2. PipelineHealth is accurate: every window the injector delivered
//      is accounted for (seen = forwarded + quarantined), and each
//      class shows up in the right counter (drops shrink windows_seen,
//      duplicates/reorders land in quarantined_order, every wrapped
//      counter is repaired exactly, spikes/zeroes are quarantined);
//   3. each hardened arm's final SPI prediction stays within 2x the
//      clean run's error against the measured SPI (the mixed arm gets
//      4x — every class at once);
//   4. the unhardened control on the mixed stream demonstrably
//      corrupts: it throws, goes non-finite, or blows the error bound
//      the hardened pipeline meets.
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "repro/common/ensure.hpp"
#include "repro/core/power_model.hpp"
#include "repro/core/profiler.hpp"
#include "repro/engine/model_engine.hpp"
#include "repro/online/sharded_pipeline.hpp"
#include "repro/sim/fault_injector.hpp"
#include "repro/sim/system.hpp"
#include "repro/workload/generator.hpp"
#include "repro/workload/phased.hpp"
#include "repro/workload/spec.hpp"
#include "repro/workload/stressmark.hpp"

namespace {

using namespace repro;

struct ArmResult {
  bool threw = false;
  std::string error;
  double spi = std::numeric_limits<double>::quiet_NaN();
  double power = std::numeric_limits<double>::quiet_NaN();
  /// Target SPI / package power of every re-solved RevisionEvent, in
  /// stream order: what a consumer of latest() acted on mid-run.
  std::vector<double> event_spi;
  std::vector<double> event_power;
  online::PipelineStats stats;
  online::SanitizerStats san;
  sim::FaultInjector::Stats inj;
};

/// Replay the recorded stream through injector -> pipeline -> engine.
ArmResult run_arm(const sim::MachineConfig& machine,
                  const core::PowerModel& power_model,
                  const core::ProcessProfile& target_profile,
                  const core::ProcessProfile& rival_profile,
                  const std::vector<sim::Sample>& samples,
                  ProcessId target_pid, const sim::FaultInjectorOptions& fopt,
                  bool harden) {
  engine::EngineOptions eng_options;
  eng_options.threads = 1;
  engine::ModelEngine eng(machine, power_model, eng_options);
  const engine::ProcessHandle target_h = eng.register_process(target_profile);
  const engine::ProcessHandle rival_h = eng.register_process(rival_profile);

  online::ShardedPipelineOptions popt;
  popt.harden = harden;
  popt.builder.refit_interval = 8;
  popt.builder.min_fit_windows = 4;
  popt.builder.phase.min_phase_windows = 5;
  // The rival sweeps its footprint, moving the target's MPA within the
  // phase; only a genuine several-fold jump should restart it.
  popt.builder.phase.relative_threshold = 0.75;
  popt.builder.phase.absolute_threshold = 0.05;
  online::ShardedPipeline pipe(eng, popt);
  pipe.monitor(target_pid, /*die=*/0, target_h);

  engine::CoScheduleQuery query;
  query.assignment = core::Assignment::empty(machine.cores);
  query.assignment.per_core[0].push_back(target_h);
  query.assignment.per_core[1].push_back(rival_h);
  pipe.set_query(query);

  sim::FaultInjector inj(pipe.sink(), fopt);
  ArmResult r;
  try {
    for (const sim::Sample& s : samples) inj.push(s);
    inj.flush();
    pipe.finish();
    // Degradation policy end state: the latest re-solve if one exists,
    // else whatever the registry still holds (last-good profiles).
    const std::optional<engine::SystemPrediction> latest =
        pipe.snapshot().latest;
    const engine::SystemPrediction end_state =
        latest.has_value() ? *latest : eng.predict(query);
    r.spi = end_state.processes[0].prediction.spi;
    r.power = end_state.total_power;
  } catch (const Error& e) {
    r.threw = true;
    r.error = e.what();
  } catch (const std::exception& e) {
    r.threw = true;
    r.error = e.what();
  }
  for (const online::PipelineEvent& event : pipe.events())
    if (event.is_profile() && event.profile().resolved) {
      const online::RevisionEvent& e = event.profile();
      r.event_spi.push_back(e.prediction.processes[0].prediction.spi);
      r.event_power.push_back(e.prediction.total_power);
    }
  const online::PipelineSnapshot snap = pipe.snapshot();
  r.stats = snap.stats;
  r.san = snap.sanitizer;
  r.inj = inj.stats();
  return r;
}

}  // namespace

int main() {
  const bench::Platform platform = bench::workstation_platform();
  const sim::MachineConfig& machine = platform.machine;
  const power::OracleConfig& oracle = platform.oracle;
  const core::PowerModel power_model = bench::get_power_model(platform);
  const std::uint32_t a = machine.l2.ways;
  const std::uint32_t sets = machine.l2.sets;

  // --- Simulate once: gzip target vs a footprint-sweeping rival. ---
  const workload::WorkloadSpec target_spec = workload::find_spec("gzip");
  sim::SystemConfig cfg;
  cfg.machine = machine;
  sim::System system(cfg, oracle, /*seed=*/0xfa17ULL);
  const ProcessId target = system.add_process(
      "target", 0, target_spec.mix,
      std::make_unique<workload::StackDistanceGenerator>(target_spec, sets));
  std::vector<workload::PhaseSegment> sweep;
  for (int round = 0; round < 12; ++round)
    for (std::uint32_t w = 1; w < a; ++w)
      sweep.push_back({workload::make_stressmark_spec(w), 1'500'000});
  system.add_process("rival", 1, sweep.front().spec.mix,
                     std::make_unique<workload::PhasedGenerator>(sweep, sets));

  std::vector<sim::Sample> samples;
  const sim::RunResult run =
      system.run(2.0, [&](const sim::Sample& s) { samples.push_back(s); });
  const sim::ProcessReport& truth = run.process(target);
  const double actual_spi =
      truth.cpu_time / static_cast<double>(truth.counters.instructions);
  const double actual_power = run.mean_measured_power();
  std::printf("recorded %zu windows; measured target SPI %.3e, "
              "package power %.2f W\n",
              samples.size(), actual_spi, actual_power);

  // Batch profiles seed the engine; the pipeline revises the target's.
  const core::StressmarkProfiler profiler(machine, oracle);
  const core::ProcessProfile target_profile = profiler.profile(target_spec);
  const core::ProcessProfile rival_profile =
      profiler.profile(workload::make_stressmark_spec(a / 2));

  auto arm = [&](const sim::FaultInjectorOptions& fopt, bool harden) {
    return run_arm(machine, power_model, target_profile, rival_profile,
                   samples, target, fopt, harden);
  };
  auto rel_err = [&](double spi) {
    return std::abs(spi - actual_spi) / actual_spi;
  };
  auto rel_perr = [&](double power) {
    return std::abs(power - actual_power) / actual_power;
  };
  // The worst prediction a consumer would have acted on at any point in
  // the run — mid-run revisions included, not just the end state.
  auto worst_of = [](const std::vector<double>& series, double last,
                     bool threw, auto err) {
    double w = threw ? std::numeric_limits<double>::infinity() : 0.0;
    for (double v : series)
      w = std::max(w, std::isfinite(v)
                          ? err(v)
                          : std::numeric_limits<double>::infinity());
    if (!threw) w = std::max(w, err(last));
    return w;
  };
  auto worst_err = [&](const ArmResult& r) {
    return worst_of(r.event_spi, r.spi, r.threw, rel_err);
  };
  auto worst_perr = [&](const ArmResult& r) {
    return worst_of(r.event_power, r.power, r.threw, rel_perr);
  };

  // --- Clean reference arm (hardened, zero fault rates). ---
  const ArmResult clean = arm(sim::FaultInjectorOptions{}, /*harden=*/true);
  if (clean.threw) {
    std::fprintf(stderr, "FAIL: clean arm threw: %s\n", clean.error.c_str());
    return 1;
  }
  const double clean_err = rel_err(clean.spi);
  const double err_floor = std::max(clean_err, 0.05);
  const double worst_floor = std::max(worst_err(clean), 0.05);
  const double perr_floor = std::max(rel_perr(clean.power), 0.05);
  const double worst_pfloor = std::max(worst_perr(clean), 0.05);
  std::printf("clean arm: predicted %.3e (%.1f%% off measured), "
              "%llu windows, %llu revisions\n",
              clean.spi, 100.0 * clean_err,
              static_cast<unsigned long long>(clean.stats.windows),
              static_cast<unsigned long long>(clean.stats.revisions));
  std::printf("clean arm: power %.2f W (%.1f%% off); worst mid-run error "
              "SPI %.1f%%, power %.1f%%\n",
              clean.power, 100.0 * rel_perr(clean.power),
              100.0 * worst_err(clean), 100.0 * worst_perr(clean));

  bool ok = true;
  auto gate = [&](bool cond, const char* who, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "FAIL [%s]: %s\n", who, what);
      ok = false;
    }
  };

  // --- One arm per fault class. ---
  struct ClassArm {
    const char* name;
    sim::FaultClass cls;
  };
  const ClassArm classes[] = {
      {"drop", sim::FaultClass::kDrop},
      {"dup", sim::FaultClass::kDuplicate},
      {"reorder", sim::FaultClass::kReorder},
      {"wrap", sim::FaultClass::kWrap},
      {"scale", sim::FaultClass::kScaleNoise},
      {"spike", sim::FaultClass::kSpike},
      {"zero", sim::FaultClass::kZero},
  };
  for (const ClassArm& c : classes) {
    sim::FaultInjectorOptions fopt;
    fopt.seed = 0xc0ffeeULL;
    fopt.rate_of(c.cls) = 0.12;
    const ArmResult r = arm(fopt, /*harden=*/true);
    const double err = r.threw ? std::numeric_limits<double>::infinity()
                               : rel_err(r.spi);
    const double perr = r.threw ? std::numeric_limits<double>::infinity()
                                : rel_perr(r.power);
    std::printf(
        "%-7s: delivered %3llu (drop %llu dup %llu reord %llu wrap %llu "
        "scale %llu spike %llu zero %llu) | forwarded %3llu repaired %llu "
        "quarantined %llu (ord %llu imp %llu out %llu) | err SPI %5.1f%% "
        "power %5.1f%%\n",
        c.name, static_cast<unsigned long long>(r.inj.windows_delivered),
        static_cast<unsigned long long>(r.inj.dropped),
        static_cast<unsigned long long>(r.inj.duplicated),
        static_cast<unsigned long long>(r.inj.reordered),
        static_cast<unsigned long long>(r.inj.wrapped),
        static_cast<unsigned long long>(r.inj.scaled),
        static_cast<unsigned long long>(r.inj.spiked),
        static_cast<unsigned long long>(r.inj.zeroed),
        static_cast<unsigned long long>(r.san.forwarded),
        static_cast<unsigned long long>(r.san.repaired),
        static_cast<unsigned long long>(r.san.quarantined),
        static_cast<unsigned long long>(r.san.quarantined_order),
        static_cast<unsigned long long>(r.san.quarantined_implausible),
        static_cast<unsigned long long>(r.san.quarantined_outlier),
        100.0 * err, 100.0 * perr);
    if (r.threw)
      std::fprintf(stderr, "       threw: %s\n", r.error.c_str());

    gate(!r.threw, c.name, "exception escaped the hardened pipeline");
    if (r.threw) continue;
    // Health bookkeeping: every delivered window is accounted for.
    gate(r.stats.health.windows_seen == r.inj.windows_delivered, c.name,
         "pipeline saw a different window count than the injector sent");
    gate(r.san.windows == r.stats.health.windows_seen &&
             r.san.forwarded + r.san.quarantined == r.san.windows,
         c.name, "sanitizer verdicts do not sum to windows seen");
    gate(r.stats.health.windows_forwarded == r.san.forwarded &&
             r.stats.health.windows_quarantined == r.san.quarantined &&
             r.stats.health.windows_repaired == r.san.repaired,
         c.name, "PipelineHealth disagrees with the sanitizer's counters");
    switch (c.cls) {
      case sim::FaultClass::kDrop:
        gate(r.inj.dropped > 0 &&
                 r.stats.health.windows_seen ==
                     r.inj.windows_seen - r.inj.dropped,
             c.name, "dropped windows not reflected in windows_seen");
        break;
      case sim::FaultClass::kDuplicate:
        gate(r.inj.duplicated > 0 &&
                 r.san.quarantined_order == r.inj.duplicated,
             c.name, "duplicate copies must all land in quarantined_order");
        break;
      case sim::FaultClass::kReorder:
        // A window still held at the end of the run is flushed *in*
        // order; it dodges the clock gate (the MAD filter may still
        // take it), so allow one reorder without an order quarantine.
        gate(r.inj.reordered > 0 &&
                 r.san.quarantined_order + 1 >= r.inj.reordered,
             c.name, "reordered windows must land in quarantined_order");
        break;
      case sim::FaultClass::kWrap:
        gate(r.inj.wrapped > 0 && r.san.repaired == r.inj.wrapped, c.name,
             "every 2^32 wrap is exactly repairable and must be repaired");
        break;
      case sim::FaultClass::kScaleNoise:
        gate(r.inj.scaled > 0, c.name, "no scale faults were injected");
        break;
      case sim::FaultClass::kSpike:
        gate(r.inj.spiked > 0 && r.san.quarantined > 0, c.name,
             "spike readings never quarantined");
        break;
      case sim::FaultClass::kZero:
        gate(r.inj.zeroed > 0 && r.san.quarantined_implausible > 0, c.name,
             "zeroed blocks of a running process never quarantined");
        break;
    }
    gate(err <= 2.0 * err_floor, c.name,
         "final SPI error above 2x the clean-run error");
    gate(perr <= 2.0 * perr_floor, c.name,
         "final power error above 2x the clean-run error");
  }

  // --- Correlated burst arm (ISSUE 8): the wedged-daemon failure
  // mode — losses arrive in multi-window runs a two-state Markov
  // chain produces, not as independent coin flips. ---
  sim::FaultInjectorOptions burst_opt;
  burst_opt.seed = 0xc0ffeeULL;
  burst_opt.burst_enter = 0.08;
  burst_opt.burst_exit = 0.35;
  burst_opt.burst_drop = 1.0;
  const ArmResult burst = arm(burst_opt, /*harden=*/true);
  const double burst_err = burst.threw
                               ? std::numeric_limits<double>::infinity()
                               : rel_err(burst.spi);
  const double burst_perr = burst.threw
                                ? std::numeric_limits<double>::infinity()
                                : rel_perr(burst.power);
  std::printf("burst  : %llu bursts swallowed %llu windows | forwarded "
              "%3llu quarantined %llu | err SPI %5.1f%% power %5.1f%%\n",
              static_cast<unsigned long long>(burst.inj.bursts),
              static_cast<unsigned long long>(burst.inj.burst_dropped),
              static_cast<unsigned long long>(burst.san.forwarded),
              static_cast<unsigned long long>(burst.san.quarantined),
              100.0 * burst_err, 100.0 * burst_perr);
  gate(!burst.threw, "burst", "exception escaped the hardened pipeline");
  if (!burst.threw) {
    gate(burst.inj.bursts > 0 && burst.inj.burst_dropped > 0, "burst",
         "the chain never burst — the arm proves nothing");
    gate(burst.stats.health.windows_seen ==
             burst.inj.windows_seen - burst.inj.burst_dropped,
         "burst", "burst-dropped windows not reflected in windows_seen");
    gate(burst_err <= 2.0 * err_floor, "burst",
         "final SPI error above 2x the clean-run error");
    gate(burst_perr <= 2.0 * perr_floor, "burst",
         "final power error above 2x the clean-run error");
  }

  // --- Mixed-fault arm: every class at once (correlated bursts
  // included), hardened vs unhardened on the identical stream. ---
  sim::FaultInjectorOptions chaos;
  chaos.seed = 0xc0ffeeULL;
  chaos.burst_enter = 0.05;
  chaos.burst_exit = 0.35;
  chaos.drop = 0.08;
  chaos.duplicate = 0.10;
  chaos.reorder = 0.08;
  chaos.wrap = 0.20;
  chaos.scale_noise = 0.10;
  chaos.spike = 0.30;
  chaos.spike_factor = 1e6;
  chaos.zero = 0.10;

  const ArmResult mixed = arm(chaos, /*harden=*/true);
  const double mixed_err = mixed.threw
                               ? std::numeric_limits<double>::infinity()
                               : rel_err(mixed.spi);
  const double mixed_perr = mixed.threw
                                ? std::numeric_limits<double>::infinity()
                                : rel_perr(mixed.power);
  std::printf("mixed  : hardened predicted SPI %.3e (%.1f%% off), power "
              "%.2f W (%.1f%% off, worst mid-run %.1f%%), "
              "forwarded %llu repaired %llu quarantined %llu degraded %llu\n",
              mixed.spi, 100.0 * mixed_err, mixed.power, 100.0 * mixed_perr,
              100.0 * worst_perr(mixed),
              static_cast<unsigned long long>(mixed.san.forwarded),
              static_cast<unsigned long long>(mixed.san.repaired),
              static_cast<unsigned long long>(mixed.san.quarantined),
              static_cast<unsigned long long>(
                  mixed.stats.health.degraded_resolves));
  std::printf("         %llu revisions (%llu rejected), %llu phase changes\n",
              static_cast<unsigned long long>(mixed.stats.revisions),
              static_cast<unsigned long long>(
                  mixed.stats.health.revisions_rejected),
              static_cast<unsigned long long>(mixed.stats.phase_changes));
  gate(!mixed.threw, "mixed", "exception escaped the hardened pipeline");
  if (!mixed.threw) {
    gate(mixed.san.forwarded + mixed.san.quarantined == mixed.san.windows,
         "mixed", "sanitizer verdicts do not sum to windows seen");
    gate(mixed_err <= 4.0 * err_floor, "mixed",
         "final SPI error above 4x the clean-run error");
    gate(mixed_perr <= 4.0 * perr_floor, "mixed",
         "final power error above 4x the clean-run error");
    gate(worst_perr(mixed) <= 4.0 * worst_pfloor, "mixed",
         "a mid-run power prediction escaped the hardened pipeline");
  }

  const ArmResult control = arm(chaos, /*harden=*/false);
  const double control_err = control.threw
                                 ? std::numeric_limits<double>::infinity()
                                 : rel_err(control.spi);
  const double control_worst = worst_err(control);
  const double control_pworst = worst_perr(control);
  const bool corrupted = control.threw || !std::isfinite(control.spi) ||
                         !std::isfinite(control.power) ||
                         control_worst > 2.0 * worst_floor ||
                         control_pworst > 2.0 * worst_pfloor;
  if (control.threw)
    std::printf("control: unhardened aborted: %s\n", control.error.c_str());
  else
    std::printf("control: unhardened predicted SPI %.3e (%.1f%% off, "
                "worst mid-run %.1f%% vs hardened %.1f%%), worst mid-run "
                "power error %.1f%% (hardened %.1f%%), "
                "%llu revisions (%llu rejected), %llu phase changes\n",
                control.spi, 100.0 * control_err, 100.0 * control_worst,
                100.0 * worst_err(mixed), 100.0 * control_pworst,
                100.0 * worst_perr(mixed),
                static_cast<unsigned long long>(control.stats.revisions),
                static_cast<unsigned long long>(
                    control.stats.health.revisions_rejected),
                static_cast<unsigned long long>(control.stats.phase_changes));
  gate(corrupted, "control",
       "the unhardened pipeline shrugged off the mixed-fault stream — "
       "the chaos load is too weak to prove the hardening matters");

  if (ok) std::printf("all gates passed\n");
  return ok ? 0 : 1;
}

// bench_online_update — cost of reacting to a phase change: batch
// re-profile + cold solve vs streaming refit + warm-started re-solve.
//
// Scenario: a monitored process changes phase while co-running with a
// contender that sweeps its cache footprint (so the monitored process
// visits a range of occupancies — the on-line stand-in for the
// stressmark sweep). Both reaction paths start from the same streamed
// window history:
//
//   batch:  re-run the full stressmark profiler against the new phase
//           (O(A) dedicated simulator co-runs) and re-solve cold;
//   online: refit the profile from the windows already streamed
//           (resample + Eq. 8 differencing + incremental Eq. 3),
//           swap it into the engine, and re-solve seeded from the
//           previous equilibrium.
//
// Gates (nonzero exit on violation):
//   1. online reaction is >= 10x cheaper than the batch reaction;
//   2. warm-started and cold solves land on the same fixed point for
//      the same profiles (|dS| <= 0.02 ways, SPI within 0.1%), with
//      the warm solve needing no more iterations than cold;
//   3. the streamed profile's SPI prediction stays within 25% of the
//      batch-profiled one (the curves come from contention-driven
//      occupancy samples, not a controlled sweep — parity, not
//      identity).
#include <chrono>
#include <cmath>
#include <cstdio>

#include "harness.hpp"
#include "repro/core/profiler.hpp"
#include "repro/engine/model_engine.hpp"
#include "repro/online/profile_builder.hpp"
#include "repro/sim/system.hpp"
#include "repro/workload/phased.hpp"
#include "repro/workload/spec.hpp"
#include "repro/workload/stressmark.hpp"

namespace {

using namespace repro;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  const sim::MachineConfig machine = sim::two_core_workstation();
  const power::OracleConfig oracle = power::oracle_for_two_core_workstation();
  const std::uint32_t a = machine.l2.ways;
  const std::uint32_t sets = machine.l2.sets;

  // The monitored process: cache-friendly phase, then a miss-heavy
  // one. The contender cycles its footprint from 1 to A−1 ways so the
  // monitored process's occupancy sweeps the S axis within each phase.
  // The instruction mix is a process property in the simulator, so the
  // post-change phase keeps the first spec's mix — and the batch
  // reference must profile exactly that combination.
  const workload::WorkloadSpec before = workload::find_spec("gzip");
  workload::WorkloadSpec after = workload::find_spec("equake");
  after.mix = before.mix;

  sim::SystemConfig cfg;
  cfg.machine = machine;
  sim::System system(cfg, oracle, /*seed=*/0xb0bULL);
  std::vector<workload::PhaseSegment> monitored_phases{{before, 5'000'000},
                                                       {after, 5'000'000}};
  const ProcessId target = system.add_process(
      "target", 0, before.mix,
      std::make_unique<workload::PhasedGenerator>(monitored_phases, sets));
  std::vector<workload::PhaseSegment> sweep;
  for (int round = 0; round < 10; ++round)
    for (std::uint32_t w = 1; w < a; ++w)
      sweep.push_back({workload::make_stressmark_spec(w), 1'500'000});
  system.add_process("contender", 1, sweep.front().spec.mix,
                     std::make_unique<workload::PhasedGenerator>(sweep, sets));

  // Stream the whole run through a builder for the target.
  online::ProfileBuilderOptions builder_options;
  builder_options.ways = a;
  builder_options.phase.min_phase_windows = 5;
  // The contender's footprint sweep moves the target's MPA within a
  // phase; only the several-fold gzip→equake jump should register.
  builder_options.phase.relative_threshold = 0.75;
  builder_options.phase.absolute_threshold = 0.05;
  builder_options.refit_interval = 0;  // we refit manually below
  builder_options.min_fit_windows = 4;
  online::ProfileBuilder builder("target", builder_options);
  std::vector<core::ProcessProfile> revisions;
  online::SampleStream stream;
  stream.attach(target, [&](const online::WindowObservation& obs) {
    if (auto rev = builder.push(obs))
      revisions.push_back(std::move(rev->profile));
  });
  system.run(1.8, [&](const sim::Sample& s) { stream.push(s); });

  // --- Online reaction: refit the post-change phase from streamed
  // windows, swap it into an engine, warm re-solve. ---
  engine::EngineOptions eng_options;
  eng_options.threads = 1;
  engine::ModelEngine eng(machine, eng_options);
  const workload::WorkloadSpec contender_spec =
      workload::make_stressmark_spec(a / 2);
  const core::StressmarkProfiler profiler(machine, oracle);
  const core::ProcessProfile contender_profile =
      profiler.profile(contender_spec);

  // Pre-change steady state: first streamed revision + contender.
  if (builder.phase_changes() == 0) {
    std::fprintf(stderr,
                 "FAIL: the stream never confirmed the phase change\n");
    return 1;
  }
  const auto t_refit = std::chrono::steady_clock::now();
  const auto fresh = builder.finish();  // refit of the current phase
  const double refit_seconds = seconds_since(t_refit);
  if (!fresh.has_value()) {
    std::fprintf(stderr, "FAIL: too few windows to refit on-line\n");
    return 1;
  }
  const engine::ProcessHandle target_h =
      eng.register_process(fresh->profile);
  const engine::ProcessHandle contender_h =
      eng.register_process(contender_profile);

  engine::CoScheduleQuery query;
  query.assignment = core::Assignment::empty(machine.cores);
  query.assignment.per_core[0].push_back(target_h);
  query.assignment.per_core[1].push_back(contender_h);
  // The equilibrium that existed before the revision (untimed: in a
  // deployment it was computed long ago) — also the cold reference for
  // the warm/cold parity gate.
  const engine::SystemPrediction cold_ref = eng.predict(query);

  // Timed on-line reaction: swap the revision in (per-entry
  // invalidation) and re-solve from the previous equilibrium's seeds.
  const auto t_react = std::chrono::steady_clock::now();
  const engine::ApplyResult applied =
      eng.try_apply(engine::Revision::process(target_h, fresh->profile));
  if (!applied) {
    std::fprintf(stderr, "FAIL: revision rejected: %s\n",
                 applied.reason.c_str());
    return 1;
  }
  engine::CoScheduleQuery warm_query = query;
  for (const auto& pt : cold_ref.processes)
    warm_query.warm_start.push_back(pt.prediction.effective_size);
  const engine::SystemPrediction warm = eng.predict(warm_query);
  const double online_seconds = refit_seconds + seconds_since(t_react);

  // --- Batch reaction: full stressmark re-profile + cold solve. ---
  const auto t_batch = std::chrono::steady_clock::now();
  const core::ProcessProfile batch_profile = profiler.profile(after);
  engine::ModelEngine batch_eng(machine, eng_options);
  engine::CoScheduleQuery batch_query;
  batch_query.assignment = core::Assignment::empty(machine.cores);
  batch_query.assignment.per_core[0].push_back(
      batch_eng.register_process(batch_profile));
  batch_query.assignment.per_core[1].push_back(
      batch_eng.register_process(contender_profile));
  const engine::SystemPrediction batch_pred = batch_eng.predict(batch_query);
  const double batch_seconds = seconds_since(t_batch);

  // --- Report. ---
  const double speedup = batch_seconds / online_seconds;
  std::printf("phase-change reaction cost\n");
  std::printf("  batch  (stressmark re-profile + cold solve): %8.3f ms\n",
              batch_seconds * 1e3);
  std::printf("  online (streamed refit + warm re-solve):     %8.3f ms\n",
              online_seconds * 1e3);
  std::printf("  speedup: %.0fx   (warm %d vs cold %d solver iterations)\n",
              speedup, warm.solver_iterations, cold_ref.solver_iterations);

  const double spi_online = warm.processes[0].prediction.spi;
  const double spi_batch = batch_pred.processes[0].prediction.spi;
  const double spi_gap = std::abs(spi_online - spi_batch) / spi_batch;
  std::printf("  target SPI under contention: online %.3e, batch %.3e "
              "(%.1f%% apart)\n",
              spi_online, spi_batch, 100.0 * spi_gap);

  // --- Gates. ---
  bool ok = true;
  if (speedup < 10.0) {
    std::fprintf(stderr, "FAIL: online reaction only %.1fx cheaper (<10x)\n",
                 speedup);
    ok = false;
  }
  for (std::size_t i = 0; i < cold_ref.processes.size(); ++i) {
    const auto& c = cold_ref.processes[i].prediction;
    const auto& w = warm.processes[i].prediction;
    // Cross-method tolerance: the cold reference may have gone through
    // the bisection fallback while the warm solve ran pure Newton.
    if (std::abs(c.effective_size - w.effective_size) > 2e-2 ||
        std::abs(c.spi - w.spi) / c.spi > 1e-3) {
      std::fprintf(stderr,
                   "FAIL: warm solve diverged from cold (process %zu: "
                   "S %.6f vs %.6f, SPI %.6e vs %.6e)\n",
                   i, w.effective_size, c.effective_size, w.spi, c.spi);
      ok = false;
    }
  }
  if (warm.solver_iterations > cold_ref.solver_iterations) {
    std::fprintf(stderr,
                 "FAIL: warm start took more iterations (%d) than cold (%d)\n",
                 warm.solver_iterations, cold_ref.solver_iterations);
    ok = false;
  }
  if (spi_gap > 0.25) {
    std::fprintf(stderr,
                 "FAIL: streamed profile drifted %.1f%% from the batch "
                 "profile (>25%%)\n",
                 100.0 * spi_gap);
    ok = false;
  }
  if (ok) std::printf("all gates passed\n");
  return ok ? 0 : 1;
}

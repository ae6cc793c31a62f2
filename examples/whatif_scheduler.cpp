// What-if migration analysis on the ModelEngine facade.
//
// A running system wants to place an incoming process: every candidate
// core yields one co-schedule query, and a single predict_batch call
// prices them all — per-process operating points, per-core power, and
// the package total — from profiles alone. The paper's incremental
// Fig. 1 estimate (reusing *measured* per-core powers for the
// combinations the newcomer does not touch, on the same engine
// snapshot) is run alongside for comparison: the two agree wherever
// the newcomer lands on an idle core, and the engine needs no live HPC
// snapshot at all.
//
// Build & run:  ./build/examples/whatif_scheduler
#include <cstdio>
#include <memory>

#include "repro/core/power_model.hpp"
#include "repro/core/profiler.hpp"
#include "repro/engine/assignment.hpp"
#include "repro/engine/model_engine.hpp"
#include "repro/sim/system.hpp"
#include "repro/workload/generator.hpp"

int main() {
  using namespace repro;

  const sim::MachineConfig machine = sim::four_core_server();
  const power::OracleConfig oracle = power::oracle_for_four_core_server();

  std::printf("Profiling workloads...\n");
  const core::StressmarkProfiler profiler(machine, oracle);
  std::vector<core::ProcessProfile> profiles;
  for (const char* name : {"vpr", "twolf", "mcf"})
    profiles.push_back(profiler.profile(workload::find_spec(name)));

  std::printf("Training power model...\n");
  core::PowerTrainerOptions train;
  train.run_per_workload = 0.3;
  train.run_per_microbench = 0.12;
  const core::PowerModel model = core::PowerModel::train(
      machine, oracle,
      {"gzip", "vpr", "mcf", "bzip2", "twolf", "art", "equake", "ammp"},
      train);

  // The engine owns the profiles; candidates only reference handles.
  engine::ModelEngine eng(machine, model);
  const engine::ProcessHandle vpr = eng.register_process(profiles[0]);
  const engine::ProcessHandle twolf = eng.register_process(profiles[1]);
  const engine::ProcessHandle mcf = eng.register_process(profiles[2]);

  // Current state: vpr on core 0, twolf on core 2 (different dies).
  core::Assignment current = core::Assignment::empty(machine.cores);
  current.per_core[0].push_back(vpr);
  current.per_core[2].push_back(twolf);

  // Live system snapshot, kept only to feed the Fig. 1 comparison.
  sim::SystemConfig cfg;
  cfg.machine = machine;
  sim::System live(cfg, oracle, 11);
  for (CoreId c = 0; c < machine.cores; ++c)
    for (std::size_t idx : current.per_core[c]) {
      const workload::WorkloadSpec& spec =
          workload::find_spec(profiles[idx].name);
      live.add_process(spec.name, c, spec.mix,
                       std::make_unique<workload::StackDistanceGenerator>(
                           spec, machine.l2.sets));
    }
  live.warm_up(0.05);
  const sim::RunResult snapshot = live.run(0.15);

  std::vector<Watts> core_power(machine.cores, model.idle_core());
  const sim::Sample& last = snapshot.samples.back();
  for (CoreId c = 0; c < machine.cores; ++c)
    if (!current.per_core[c].empty())
      core_power[c] = model.idle_core() + model.dynamic_power(
                                              last.core_rates[c]);
  std::printf("\nCurrent state: vpr@core0, twolf@core2;  measured %.1f W\n",
              snapshot.mean_measured_power());

  // One query per candidate core; one batch call prices them all.
  std::vector<engine::CoScheduleQuery> candidates;
  for (CoreId c = 0; c < machine.cores; ++c) {
    engine::CoScheduleQuery q;
    q.assignment = current;
    q.assignment.per_core[c].push_back(mcf);
    candidates.push_back(std::move(q));
  }
  const std::shared_ptr<const engine::EngineSnapshot> snap = eng.snapshot();
  const std::vector<engine::SystemPrediction> predictions =
      eng.predict_batch(*snap, candidates);

  std::printf("\nWhat-if: assign incoming mcf to...\n");
  CoreId best_core = 0;
  for (CoreId c = 0; c < machine.cores; ++c) {
    const Watts incremental = engine::estimate_after_assign(
        eng, *snap, current, mcf, c, core_power);
    std::printf("  core %u -> engine %.1f W, Fig. 1 incremental %.1f W%s\n",
                c, predictions[c].total_power, incremental,
                current.per_core[c].empty() ? "" : "  (time-shared)");
    if (predictions[c].total_power < predictions[best_core].total_power)
      best_core = c;
  }
  const Watts best_power = predictions[best_core].total_power;
  std::printf("\nDecision: place mcf on core %u (predicted %.1f W).\n",
              best_core, best_power);

  // Verify the chosen placement.
  sim::System verify(cfg, oracle, 12);
  for (CoreId c = 0; c < machine.cores; ++c)
    for (std::size_t idx : candidates[best_core].assignment.per_core[c]) {
      const workload::WorkloadSpec& spec =
          workload::find_spec(profiles[idx].name);
      verify.add_process(spec.name, c, spec.mix,
                         std::make_unique<workload::StackDistanceGenerator>(
                             spec, machine.l2.sets));
    }
  verify.warm_up(0.05);
  const Watts measured = verify.run(0.3).mean_measured_power();
  std::printf("Measured after placement: %.1f W (prediction error %.1f%%)\n",
              measured, 100.0 * (best_power - measured) / measured);
  return 0;
}

// On-line profiling, streamed end to end (§1, §3.4 + the streaming
// pipeline layer), sharded per die (ISSUE 7).
//
// The original deployment story forced a new application onto an idle
// machine and swept the stressmark against it. This example shows the
// *streaming* alternative on the 4-core/2-die server: four
// never-before-seen processes run under normal multi-programmed
// contention while their HPC windows flow through the sharded
// pipeline — each machine window is split into per-die slices, one
// producer lane per die, each lane's sanitize/phase-detect/build work
// owned by its own PipelineShard, and the coordinator merges the
// shard streams back into one deterministic event log while keeping
// the single serialized door into ModelEngine::try_apply. Confirmed
// phase changes and periodic refits emit versioned profile revisions;
// each revision invalidates exactly that process's memoized artifacts
// and re-prices the running co-schedule with a warm-started Newton
// solve seeded from the previous equilibrium. The example prints the
// revision/phase trace with per-phase SPI and power predictions, then
// checks the final prediction against the simulator's measurement and
// saves the latest revisions to a store.
//
// Build & run:  ./build/examples/online_profiler [store-path]
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "repro/core/power_model.hpp"
#include "repro/core/serialize.hpp"
#include "repro/engine/model_engine.hpp"
#include "repro/online/sharded_pipeline.hpp"
#include "repro/sim/system.hpp"
#include "repro/workload/phased.hpp"
#include "repro/workload/spec.hpp"
#include "repro/workload/stressmark.hpp"

int main(int argc, char** argv) {
  using namespace repro;
  const std::string store_path =
      argc > 1 ? argv[1] : "online_profiler.store";

  const sim::MachineConfig machine = sim::four_core_server();
  const power::OracleConfig oracle = power::oracle_for_four_core_server();

  // Train the Eq. 9 power model once (short runs; §4.1).
  std::printf("Training the power model...\n");
  core::PowerTrainerOptions train;
  train.run_per_workload = 0.15;
  train.run_per_microbench = 0.06;
  const core::PowerModel power_model = core::PowerModel::train(
      machine, oracle, {"gzip", "mcf", "art", "equake"}, train);

  // The engine re-solves with Newton (its default) so warm starts pay
  // off.
  engine::EngineOptions eng_options;
  eng_options.threads = 1;
  engine::ModelEngine eng(machine, power_model, eng_options);

  // Die 0 carries the phased pair sharing its L2: "appserver" flips
  // from a cache-friendly to a thrashing phase; "batchjob" steps
  // through three footprints, pushing appserver through different
  // occupancy points (the on-line stand-in for the stressmark sweep).
  // Die 1 carries a steady pair so the second shard has a live lane.
  const std::uint32_t sets = machine.l2.sets;
  sim::SystemConfig cfg;
  cfg.machine = machine;
  sim::System system(cfg, oracle, /*seed=*/0x5eedULL);

  const workload::WorkloadSpec friendly = workload::find_spec("gzip");
  const workload::WorkloadSpec thrashy = workload::find_spec("art");
  std::vector<workload::PhaseSegment> app_phases;
  app_phases.push_back({friendly, 6'000'000});
  app_phases.push_back({thrashy, 6'000'000});
  const ProcessId app = system.add_process(
      "appserver", 0, friendly.mix,
      std::make_unique<workload::PhasedGenerator>(app_phases, sets));

  std::vector<workload::PhaseSegment> batch_phases;
  batch_phases.push_back({workload::make_stressmark_spec(2), 5'000'000});
  batch_phases.push_back({workload::make_stressmark_spec(6), 5'000'000});
  batch_phases.push_back({workload::make_stressmark_spec(4), 5'000'000});
  const ProcessId batch = system.add_process(
      "batchjob", 1, batch_phases.front().spec.mix,
      std::make_unique<workload::PhasedGenerator>(batch_phases, sets));

  const workload::WorkloadSpec db_spec = workload::find_spec("mcf");
  const ProcessId db = system.add_process(
      "dbscan", 2, db_spec.mix,
      std::make_unique<workload::PhasedGenerator>(
          std::vector<workload::PhaseSegment>{{db_spec, 50'000'000}}, sets));
  const workload::WorkloadSpec cache_spec = workload::find_spec("equake");
  const ProcessId webcache = system.add_process(
      "webcache", 3, cache_spec.mix,
      std::make_unique<workload::PhasedGenerator>(
          std::vector<workload::PhaseSegment>{{cache_spec, 50'000'000}},
          sets));

  // The sharded streaming pipeline: one shard per die, cold-start
  // monitoring (no prior profiles). Each process registers on its
  // die's producer lane.
  online::ShardedPipelineOptions pipe_options;
  pipe_options.builder.phase.min_phase_windows = 5;
  pipe_options.builder.refit_interval = 8;
  pipe_options.builder.min_fit_windows = 4;
  pipe_options.shards = machine.dies;
  pipe_options.producers = machine.dies;
  pipe_options.coalesce_resolves = true;  // one re-solve per merged window
  online::ShardedPipeline pipe(eng, pipe_options);
  pipe.monitor(app, machine.core_to_die[0], "appserver");
  pipe.monitor(batch, machine.core_to_die[1], "batchjob");
  pipe.monitor(db, machine.core_to_die[2], "dbscan");
  pipe.monitor(webcache, machine.core_to_die[3], "webcache");

  std::printf("Streaming %u ms HPC windows through %zu pipeline shards...\n\n",
              static_cast<unsigned>(cfg.sample_period * 1000.0),
              pipe.shard_count());
  std::printf("%-8s %-10s %-4s %-7s %-11s %-9s %-7s\n", "t [s]", "process",
              "rev", "phases", "SPI(app)", "P [W]", "iters");

  // Once all four processes have registered themselves (first
  // revisions), re-price the running co-schedule after every further
  // revision. Each machine window is split into per-die slices and
  // pushed lane by lane; the coordinator reunites them on (seq, die).
  bool query_set = false;
  online::EventCursor next_seq = 0;  // events_since cursor, eviction-proof
  const ProcessId all_pids[] = {app, batch, db, webcache};
  const sim::RunResult run = system.run(1.5, [&](const sim::Sample& s) {
    for (const sim::Sample& slice : system.split_sample(s))
      pipe.push(slice);
    if (!query_set) {
      bool all = true;
      for (ProcessId pid : all_pids)
        if (!pipe.handle_of(pid)) all = false;
      if (all) {
        engine::CoScheduleQuery q;
        q.assignment = core::Assignment::empty(machine.cores);
        q.assignment.per_core[0].push_back(*pipe.handle_of(app));
        q.assignment.per_core[1].push_back(*pipe.handle_of(batch));
        q.assignment.per_core[2].push_back(*pipe.handle_of(db));
        q.assignment.per_core[3].push_back(*pipe.handle_of(webcache));
        pipe.set_query(q);
        query_set = true;
      }
    }
    for (const online::PipelineEvent& event : pipe.events_since(next_seq)) {
      next_seq = event.seq + 1;
      if (!event.is_profile()) continue;
      const online::RevisionEvent& e = event.profile();
      const core::ProcessProfile p = eng.profile(e.handle);
      double app_spi = 0.0;
      double watts = 0.0;
      if (e.resolved) {
        for (const auto& pt : e.prediction.processes)
          if (pt.handle == *pipe.handle_of(app))
            app_spi = pt.prediction.spi;
        watts = e.prediction.total_power;
      }
      std::printf("%-8.3f %-10s %-4llu %-7llu %-11.3e %-9.2f %-7d\n", e.time,
                  p.name.c_str(),
                  static_cast<unsigned long long>(e.revision),
                  static_cast<unsigned long long>(
                      pipe.snapshot().stats.phase_changes),
                  app_spi, watts, e.solver_iterations);
    }
  });
  pipe.finish();

  const online::PipelineSnapshot snap = pipe.snapshot();
  const online::PipelineStats& stats = snap.stats;
  std::printf("\n%llu windows -> %llu revisions, %llu phase changes, "
              "%llu warm re-solves (%.1f Newton iterations each), "
              "%llu re-solves coalesced\n",
              static_cast<unsigned long long>(stats.windows),
              static_cast<unsigned long long>(stats.revisions),
              static_cast<unsigned long long>(stats.phase_changes),
              static_cast<unsigned long long>(stats.resolves),
              stats.resolves > 0
                  ? static_cast<double>(stats.solver_iterations) /
                        static_cast<double>(stats.resolves)
                  : 0.0,
              static_cast<unsigned long long>(stats.coalesced_resolves));

  // Check the last prediction against what the simulator measured over
  // the tail windows (the final phase pair).
  const std::optional<engine::SystemPrediction>& latest = snap.latest;
  if (latest.has_value()) {
    double measured_spi = 0.0;
    std::size_t tail = 0;
    for (std::size_t i = run.samples.size() >= 10 ? run.samples.size() - 10
                                                  : 0;
         i < run.samples.size(); ++i) {
      const sim::Sample& s = run.samples[i];
      if (s.process_delta[app].instructions > 0.0) {
        measured_spi += s.process_cpu[app] / s.process_delta[app].instructions;
        ++tail;
      }
    }
    measured_spi /= static_cast<double>(tail);
    double predicted_spi = 0.0;
    for (const auto& pt : latest->processes)
      if (pt.handle == *pipe.handle_of(app)) predicted_spi = pt.prediction.spi;
    std::printf("appserver final phase: predicted SPI %.3e, measured %.3e "
                "(%.1f%% error)\n",
                predicted_spi, measured_spi,
                100.0 * std::abs(predicted_spi - measured_spi) / measured_spi);
  }

  // Persist the freshest revisions for later sessions.
  core::ModelStore store;
  for (ProcessId pid : all_pids)
    if (auto h = pipe.handle_of(pid)) store.profiles.push_back(eng.profile(*h));
  core::save_store(store_path, store);
  std::printf("Saved %zu streamed profile revisions to %s\n",
              store.profiles.size(), store_path.c_str());

  const auto reloaded = core::load_store(store_path);
  std::printf("Reload check: %s\n",
              reloaded && reloaded->find("appserver") ? "OK" : "FAILED");
  return 0;
}

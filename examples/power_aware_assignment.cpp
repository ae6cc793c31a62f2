// Power-aware assignment: the paper's motivating application (§5).
//
// Given a batch of profiled processes, the model prices every
// process-to-core mapping from profiles alone — no trial runs. Here
// the ModelEngine facade does the sweep: all cores^k placements become
// CoScheduleQuery candidates and one predict_batch call prices them in
// parallel, memoizing each process's fill curve across the batch. We
// then run the best and worst mappings on the simulator to show the
// predicted gap is real.
//
// Build & run:  ./build/examples/power_aware_assignment
#include <cstdio>
#include <memory>

#include "repro/core/power_model.hpp"
#include "repro/core/profiler.hpp"
#include "repro/engine/assignment.hpp"
#include "repro/engine/model_engine.hpp"
#include "repro/sim/system.hpp"
#include "repro/workload/generator.hpp"

namespace {

repro::Watts run_assignment(const repro::sim::MachineConfig& machine,
                            const repro::power::OracleConfig& oracle,
                            const repro::core::Assignment& assignment,
                            const std::vector<repro::core::ProcessProfile>&
                                profiles) {
  using namespace repro;
  sim::SystemConfig cfg;
  cfg.machine = machine;
  sim::System system(cfg, oracle, 7);
  for (CoreId c = 0; c < machine.cores; ++c)
    for (std::size_t idx : assignment.per_core[c]) {
      const workload::WorkloadSpec& spec =
          workload::find_spec(profiles[idx].name);
      system.add_process(spec.name, c, spec.mix,
                         std::make_unique<workload::StackDistanceGenerator>(
                             spec, machine.l2.sets));
    }
  system.warm_up(0.05);
  return system.run(0.3).mean_measured_power();
}

void describe(const repro::core::Assignment& a,
              const std::vector<repro::core::ProcessProfile>& profiles) {
  for (std::size_t c = 0; c < a.per_core.size(); ++c) {
    std::printf("    core %zu:", c);
    if (a.per_core[c].empty()) std::printf(" (idle)");
    for (std::size_t idx : a.per_core[c])
      std::printf(" %s", profiles[idx].name.c_str());
    std::printf("\n");
  }
}

}  // namespace

int main() {
  using namespace repro;

  const sim::MachineConfig machine = sim::four_core_server();
  const power::OracleConfig oracle = power::oracle_for_four_core_server();

  // Profile the batch (once per process — O(k), not O(2^k)).
  std::printf("Profiling the job batch on \"%s\"...\n", machine.name.c_str());
  const core::StressmarkProfiler profiler(machine, oracle);
  std::vector<core::ProcessProfile> profiles;
  for (const char* name : {"mcf", "art", "gzip", "equake"})
    profiles.push_back(profiler.profile(workload::find_spec(name)));

  // Train the Eq. 9 power model (§4.1).
  std::printf("Training the power model...\n");
  core::PowerTrainerOptions train;
  train.run_per_workload = 0.3;
  train.run_per_microbench = 0.12;
  const core::PowerModel model = core::PowerModel::train(
      machine, oracle,
      {"gzip", "vpr", "mcf", "bzip2", "twolf", "art", "equake", "ammp"},
      train);

  // Register the batch once; every candidate below reuses the memoized
  // fill curves.
  engine::ModelEngine eng(machine, model);
  std::vector<engine::ProcessHandle> handles;
  for (const core::ProcessProfile& p : profiles)
    handles.push_back(eng.register_process(p));

  // Every process-to-core placement becomes one query of the batch.
  std::vector<engine::CoScheduleQuery> candidates;
  for (core::Assignment& a : engine::placements(handles, machine.cores)) {
    engine::CoScheduleQuery q;
    q.assignment = std::move(a);
    candidates.push_back(std::move(q));
  }
  const std::vector<engine::SystemPrediction> predictions =
      eng.predict_batch(candidates);

  std::size_t best = 0, worst = 0;
  for (std::size_t i = 1; i < predictions.size(); ++i) {
    if (predictions[i].total_power < predictions[best].total_power) best = i;
    if (predictions[i].total_power > predictions[worst].total_power) worst = i;
  }

  const engine::ModelEngine::CacheStats stats = eng.cache_stats();
  std::printf("\nPriced %zu mappings from profiles alone "
              "(fill-curve cache: %llu hits / %llu builds).\n",
              candidates.size(),
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses));
  std::printf("\n  Min-power mapping (predicted %.1f W, %.2f GIPS):\n",
              predictions[best].total_power,
              predictions[best].throughput_ips / 1e9);
  describe(candidates[best].assignment, profiles);
  std::printf("\n  Max-power mapping (predicted %.1f W, %.2f GIPS):\n",
              predictions[worst].total_power,
              predictions[worst].throughput_ips / 1e9);
  describe(candidates[worst].assignment, profiles);

  // Ground truth.
  const Watts best_meas =
      run_assignment(machine, oracle, candidates[best].assignment, profiles);
  const Watts worst_meas =
      run_assignment(machine, oracle, candidates[worst].assignment, profiles);
  std::printf("\nMeasured:  min-power mapping %.1f W,  max-power mapping "
              "%.1f W\n",
              best_meas, worst_meas);
  std::printf("Prediction errors: %.1f%% and %.1f%%\n",
              100.0 * (predictions[best].total_power - best_meas) / best_meas,
              100.0 * (predictions[worst].total_power - worst_meas) /
                  worst_meas);
  return 0;
}

// Way-partition planning from feature vectors (Xu et al. [11] lineage).
//
// The feature vectors that power the paper's contention predictions
// also price explicit cache partitions. This example plans the optimal
// way split for a co-schedule under three objectives, prices each plan
// (and the free-for-all LRU baseline) through the ModelEngine facade —
// one CoScheduleQuery per candidate, the partitioned ones pinning way
// quotas via query.partition — then enforces the throughput-optimal
// plan in the simulator and compares against shared LRU.
//
// Build & run:  ./build/examples/partition_planner
#include <cstdio>
#include <memory>

#include "repro/core/partitioning.hpp"
#include "repro/core/profiler.hpp"
#include "repro/engine/model_engine.hpp"
#include "repro/sim/system.hpp"
#include "repro/workload/generator.hpp"

namespace {

repro::sim::RunResult run_pair(const repro::sim::MachineConfig& machine,
                               const repro::power::OracleConfig& oracle,
                               const char* a, const char* b,
                               const std::vector<std::uint32_t>* quotas) {
  using namespace repro;
  sim::SystemConfig cfg;
  cfg.machine = machine;
  sim::System system(cfg, oracle, 31);
  const char* names[] = {a, b};
  for (CoreId c = 0; c < 2; ++c) {
    const workload::WorkloadSpec& spec = workload::find_spec(names[c]);
    system.add_process(spec.name, c, spec.mix,
                       std::make_unique<workload::StackDistanceGenerator>(
                           spec, machine.l2.sets));
  }
  if (quotas) system.set_partition(0, *quotas);
  system.warm_up(0.05);
  return system.run(0.25);
}

}  // namespace

int main() {
  using namespace repro;
  const sim::MachineConfig machine = sim::two_core_workstation();
  const power::OracleConfig oracle = power::oracle_for_two_core_workstation();
  const char* job_a = "twolf";
  const char* job_b = "mcf";

  std::printf("Profiling %s and %s...\n", job_a, job_b);
  const core::StressmarkProfiler profiler(machine, oracle);
  const core::ProcessProfile pa =
      profiler.profile(workload::find_spec(job_a));
  const core::ProcessProfile pb =
      profiler.profile(workload::find_spec(job_b));
  const std::vector<core::FeatureVector> fvs{pa.features, pb.features};

  // Performance-only engine (no power model): predictions carry SPI,
  // MPA, occupancy, and aggregate throughput.
  engine::ModelEngine eng(machine);
  const engine::ProcessHandle ha = eng.register_process(pa);
  const engine::ProcessHandle hb = eng.register_process(pb);
  core::Assignment pair = core::Assignment::empty(machine.cores);
  pair.per_core[0].push_back(ha);
  pair.per_core[1].push_back(hb);

  // One query per candidate: the shared-LRU baseline plus the optimal
  // plan under each objective.
  const std::pair<core::PartitionObjective, const char*> objectives[] = {
      {core::PartitionObjective::kThroughput, "throughput"},
      {core::PartitionObjective::kWeightedSpeedup, "weighted speedup"},
      {core::PartitionObjective::kMissRate, "miss rate"},
  };
  std::vector<engine::CoScheduleQuery> queries;
  queries.push_back({pair, {}, {}, {}});  // shared LRU
  std::vector<core::PartitionResult> plans;
  for (const auto& [objective, label] : objectives) {
    plans.push_back(core::optimal_partition(fvs, machine.l2.ways, objective));
    queries.push_back({pair, {plans.back().quotas}, {}, {}});
  }
  const std::vector<engine::SystemPrediction> pred = eng.predict_batch(queries);

  std::printf("\nOptimal %u-way splits by objective (predicted GIPS; shared "
              "LRU %.3f):\n",
              machine.l2.ways, pred[0].throughput_ips / 1e9);
  for (std::size_t o = 0; o < plans.size(); ++o)
    std::printf("  %-17s %s gets %u ways, %s gets %u  ->  %.3f GIPS\n",
                objectives[o].second, job_a, plans[o].quotas[0], job_b,
                plans[o].quotas[1], pred[o + 1].throughput_ips / 1e9);

  // Enforce the throughput plan and compare with shared LRU.
  const core::PartitionResult& plan = plans[0];
  const sim::RunResult shared =
      run_pair(machine, oracle, job_a, job_b, nullptr);
  const sim::RunResult part =
      run_pair(machine, oracle, job_a, job_b, &plan.quotas);

  auto ips = [](const sim::RunResult& r) {
    double total = 0.0;
    for (const sim::ProcessReport& p : r.processes) total += 1.0 / p.spi();
    return total;
  };
  std::printf("\nMeasured aggregate throughput:\n");
  std::printf("  shared LRU      : %.3f Ginstr/s (predicted %.3f)\n",
              ips(shared) / 1e9, pred[0].throughput_ips / 1e9);
  std::printf("  planned split %u/%u: %.3f Ginstr/s (%.2f%% change)\n",
              plan.quotas[0], plan.quotas[1], ips(part) / 1e9,
              100.0 * (ips(part) - ips(shared)) / ips(shared));
  std::printf("\nPer-process under the planned split:\n");
  for (const sim::ProcessReport& p : part.processes)
    std::printf("  %-7s S=%5.2f ways  MPA=%.3f  SPI=%.3f ns\n",
                p.name.c_str(), p.mean_occupancy, p.mpa(), p.spi() * 1e9);
  return 0;
}

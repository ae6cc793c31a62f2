// Cache-partitioning study (extension; Xu et al. [11] lineage).
//
// The feature vectors that drive the paper's contention model equally
// drive *partitioning* decisions: optimal_partition searches for the
// best way allocation, and the ModelEngine facade prices both the
// shared-LRU equilibrium and the enforced partition — the whole suite
// is registered once and every pair is two CoScheduleQuery candidates
// in one batch. This bench, for a set of benchmark pairs on the 2-core
// workstation:
//   1. measures throughput under free-for-all shared LRU,
//   2. computes the model's optimal partition from profiles alone,
//   3. enforces that partition in the simulator and measures again,
// reporting the predicted and realized throughput changes.
#include <iostream>
#include <memory>

#include "harness.hpp"
#include "repro/common/table.hpp"
#include "repro/core/partitioning.hpp"
#include "repro/engine/model_engine.hpp"
#include "repro/workload/generator.hpp"

namespace repro::bench {
namespace {

struct Throughput {
  double total_ips = 0.0;  // Σ 1/SPI over processes
};

Throughput measure(const Platform& platform,
                   const std::vector<core::ProcessProfile>& profiles,
                   std::size_t i, std::size_t j,
                   const std::vector<std::uint32_t>* quotas,
                   std::uint64_t seed) {
  sim::SystemConfig cfg;
  cfg.machine = platform.machine;
  sim::System system(cfg, platform.oracle, seed);
  for (auto [core, idx] : {std::pair<CoreId, std::size_t>{0, i},
                           std::pair<CoreId, std::size_t>{1, j}}) {
    const workload::WorkloadSpec& spec =
        workload::find_spec(profiles[idx].name);
    system.add_process(spec.name, core, spec.mix,
                       std::make_unique<workload::StackDistanceGenerator>(
                           spec, platform.machine.l2.sets));
  }
  if (quotas) system.set_partition(0, *quotas);
  system.warm_up(0.05);
  const sim::RunResult run = system.run(0.2);
  Throughput t;
  for (const sim::ProcessReport& p : run.processes)
    t.total_ips += 1.0 / p.spi();
  return t;
}

int run() {
  const Platform platform = workstation_platform();
  const std::vector<core::ProcessProfile> profiles =
      get_profiles(platform, suite8());

  // One engine for the whole study: the suite registers once and the
  // memoized fill curves are shared by every pair's queries.
  engine::ModelEngine eng(platform.machine);
  std::vector<engine::ProcessHandle> handles;
  for (const core::ProcessProfile& p : profiles)
    handles.push_back(eng.register_process(p));
  auto index = [&](const char* name) -> std::size_t {
    const auto h = eng.find(name);
    if (!h) throw Error("missing profile");
    return *h;
  };

  Table table(
      "Way-partitioning study on the 2-core workstation: shared LRU vs "
      "the model's optimal partition (throughput = sum of IPS)");
  table.set_header({"Pair", "Partition (ways)", "Shared IPS (G/s)",
                    "Partitioned IPS (G/s)", "Realized gain (%)",
                    "Predicted gain (%)"});

  const std::pair<const char*, const char*> pairs[] = {
      {"gzip", "mcf"},  {"vpr", "art"},    {"twolf", "mcf"},
      {"bzip2", "art"}, {"equake", "ammp"}};
  std::uint64_t seed = 0x9a57;
  for (const auto& [a, b] : pairs) {
    const std::size_t i = index(a), j = index(b);
    const std::vector<core::FeatureVector> fvs{profiles[i].features,
                                               profiles[j].features};
    const core::PartitionResult best =
        core::optimal_partition(fvs, platform.machine.l2.ways);

    // Model: the shared equilibrium and the enforced partition are two
    // queries over the same assignment, priced in one batch.
    core::Assignment pair_assign =
        core::Assignment::empty(platform.machine.cores);
    pair_assign.per_core[0].push_back(handles[i]);
    pair_assign.per_core[1].push_back(handles[j]);
    const std::vector<engine::CoScheduleQuery> queries{
        {pair_assign, {}, {}, {}}, {pair_assign, {best.quotas}, {}, {}}};
    const std::vector<engine::SystemPrediction> pred =
        eng.predict_batch(queries);
    const double pred_gain = 100.0 *
                             (pred[1].throughput_ips - pred[0].throughput_ips) /
                             pred[0].throughput_ips;

    // Simulator: measured shared vs enforced partition.
    const Throughput shared =
        measure(platform, profiles, i, j, nullptr, seed++);
    const Throughput part =
        measure(platform, profiles, i, j, &best.quotas, seed++);
    const double realized =
        100.0 * (part.total_ips - shared.total_ips) / shared.total_ips;

    table.add_row({std::string(a) + "+" + b,
                   std::to_string(best.quotas[0]) + "/" +
                       std::to_string(best.quotas[1]),
                   Table::num(shared.total_ips / 1e9, 3),
                   Table::num(part.total_ips / 1e9, 3),
                   Table::num(realized, 2), Table::num(pred_gain, 2)});
  }
  table.print(std::cout);
  std::printf(
      "\nPositive gains mean explicit partitioning beats free-for-all LRU "
      "for that pair; the model predicts the gain from profiles alone.\n");
  return 0;
}

}  // namespace
}  // namespace repro::bench

int main() { return repro::bench::run(); }

// Assignment pricing on the engine, over synthetic profiles (no
// simulation): placement enumeration, the Eq. 10 combination average
// against a spelled-out reference, the energy objective of the
// exhaustive search, and Eq. 10 against the engine's die-wide predict().
#include "repro/engine/assignment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "repro/sim/machine.hpp"

namespace repro::engine {
namespace {

using core::Assignment;
using core::ProcessProfile;
using core::ReuseHistogram;

core::PowerModel model() {
  return core::PowerModel(45.0, {6.0e-9, 2.2e-8, -1.0e-7, 4.5e-9, 5.5e-9},
                          4);
}

ProcessProfile synthetic(const std::string& name, ReuseHistogram hist,
                         double api, double alpha, double beta,
                         double fppi) {
  ProcessProfile p;
  p.name = name;
  p.features.name = name;
  p.features.histogram = std::move(hist);
  p.features.api = api;
  p.features.alpha = alpha;
  p.features.beta = beta;
  p.alone.l1rpi = 0.33;
  p.alone.l2rpi = api;
  p.alone.brpi = 0.15;
  p.alone.fppi = fppi;
  p.alone.l2mpr = p.features.histogram.mpa(16.0);
  p.alone.spi = p.features.spi_at(p.alone.l2mpr);
  p.power_alone = 55.0;
  return p;
}

std::vector<ProcessProfile> fleet() {
  return {
      synthetic("cpu", ReuseHistogram({0.8, 0.15}, 0.05), 0.004, 5e-10,
                4e-10, 0.2),
      synthetic("mem", ReuseHistogram(std::vector<double>(14, 0.06), 0.16),
                0.05, 4e-9, 6e-10, 0.0),
      synthetic("mid", ReuseHistogram({0.3, 0.25, 0.2, 0.1}, 0.15), 0.015,
                1.5e-9, 5e-10, 0.1),
  };
}

ProcessProfile worker() {
  return synthetic("worker",
                   ReuseHistogram(std::vector<double>(12, 0.07), 0.16), 0.04,
                   4e-9, 6e-10, 0.05);
}

ProcessProfile sprinter() {
  return synthetic("sprinter", ReuseHistogram({0.6, 0.25, 0.1}, 0.05), 0.01,
                   8e-10, 4e-10, 0.05);
}

/// A four-core-server engine over `profiles`, registered in order so
/// handle i is profiles[i].
struct World {
  ModelEngine eng{sim::four_core_server(), model()};

  explicit World(const std::vector<ProcessProfile>& profiles) {
    for (const ProcessProfile& p : profiles) eng.register_process(p);
  }
  Eq10Estimate eq10(const Assignment& a) const {
    return estimate_eq10(eng, *eng.snapshot(), a);
  }
  SystemPrediction predict(const Assignment& a) const {
    CoScheduleQuery q;
    q.assignment = a;
    return eng.predict(q);
  }
};

/// The paper's §5 arithmetic spelled out: per die, solve every
/// one-process-per-busy-core combination (first busy core the fastest
/// digit), sum its processes' dynamic power and 1/SPI, and average the
/// combinations. Each combination is solved with `method` and the
/// engine's Newton→bisection fallback.
Eq10Estimate reference_eq10(const sim::MachineConfig& machine,
                            const core::PowerModel& power,
                            const std::vector<ProcessProfile>& profiles,
                            const Assignment& a,
                            core::SolveOptions::Method method) {
  const core::EquilibriumSolver solver(machine.l2.ways);
  Eq10Estimate out;
  out.total_power = power.idle_total();
  for (DieId die = 0; die < machine.dies; ++die) {
    std::vector<const std::vector<std::size_t>*> queues;
    for (CoreId c : machine.cores_on_die(die))
      if (!a.per_core[c].empty()) queues.push_back(&a.per_core[c]);
    if (queues.empty()) continue;
    std::vector<std::size_t> cursor(queues.size(), 0);
    double dynamic_sum = 0.0;
    double ips_sum = 0.0;
    std::size_t count = 0;
    while (true) {
      std::vector<core::FeatureVector> features;
      std::vector<const ProcessProfile*> combo;
      for (std::size_t q = 0; q < queues.size(); ++q) {
        combo.push_back(&profiles[(*queues[q])[cursor[q]]]);
        features.push_back(combo.back()->features);
      }
      core::SolveOptions options;
      options.method = method;
      std::vector<core::ProcessPrediction> eq;
      try {
        eq = solver.solve(features, options);
      } catch (const Error&) {
        if (method != core::SolveOptions::Method::kNewton) throw;
        options.method = core::SolveOptions::Method::kBisection;
        eq = solver.solve(features, options);
      }
      double dynamic = 0.0;
      double ips = 0.0;
      for (std::size_t i = 0; i < combo.size(); ++i) {
        dynamic += core::process_dynamic_power(power, combo[i]->alone,
                                               eq[i].spi, eq[i].mpa);
        ips += 1.0 / eq[i].spi;
      }
      dynamic_sum += dynamic;
      ips_sum += ips;
      ++count;
      std::size_t q = 0;
      while (q < queues.size() && ++cursor[q] == queues[q]->size()) {
        cursor[q] = 0;
        ++q;
      }
      if (q == queues.size()) break;
    }
    out.total_power += dynamic_sum / static_cast<double>(count);
    out.throughput_ips += ips_sum / static_cast<double>(count);
  }
  return out;
}

TEST(Placements, YieldsCoresToTheKMappingsPlacingEachProcessOnce) {
  const std::vector<ProcessHandle> procs{0, 1, 2};
  const std::vector<Assignment> all = placements(procs, 4);
  ASSERT_EQ(all.size(), 64u);  // 4 cores ^ 3 processes
  std::set<std::vector<std::vector<std::size_t>>> distinct;
  for (const Assignment& a : all) {
    ASSERT_EQ(a.per_core.size(), 4u);
    std::vector<int> seen(procs.size(), 0);
    for (const auto& q : a.per_core)
      for (std::size_t h : q) ++seen[h];
    for (int s : seen) EXPECT_EQ(s, 1);
    distinct.insert(a.per_core);
  }
  EXPECT_EQ(distinct.size(), all.size());
  EXPECT_EQ(placements(std::vector<ProcessHandle>{5, 6, 7, 8}, 2).size(),
            16u);

  // Process 0 is the slowest digit: the first mapping packs core 0,
  // the second moves only the last process.
  EXPECT_EQ(all[0].per_core[0], (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(all[1].per_core[0], (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(all[1].per_core[1], (std::vector<std::size_t>{2}));
}

TEST(Eq10Expansion, MatchesPerCombinationReferenceBitForBit) {
  // Cores time-share on both dies: die 0 has 2·2 combinations, die 1
  // has 3·1, and handle 0 runs on both dies.
  std::vector<ProcessProfile> profiles = fleet();
  profiles.push_back(worker());
  profiles.push_back(sprinter());
  const World w(profiles);
  Assignment a = Assignment::empty(4);
  a.per_core[0] = {0, 3};
  a.per_core[1] = {1, 4};
  a.per_core[2] = {2, 0, 3};
  a.per_core[3] = {4};
  const core::SolveOptions::Method method = w.eng.options().method;
  const Eq10Estimate ref =
      reference_eq10(sim::four_core_server(), model(), profiles, a, method);
  const Eq10Estimate got = w.eq10(a);
  EXPECT_EQ(got.total_power, ref.total_power);
  EXPECT_EQ(got.throughput_ips, ref.throughput_ips);

  // One idle die, all of the other die's processes on one core.
  Assignment packed = Assignment::empty(4);
  packed.per_core[3] = {1, 2, 4};
  const Eq10Estimate ref_packed = reference_eq10(
      sim::four_core_server(), model(), profiles, packed, method);
  EXPECT_EQ(w.eq10(packed).total_power, ref_packed.total_power);
  EXPECT_EQ(w.eq10(packed).throughput_ips, ref_packed.throughput_ips);
}

TEST(DetailedEstimate, IdleMachineHasZeroThroughput) {
  const World w(fleet());
  const Eq10Estimate d = w.eq10(Assignment::empty(4));
  EXPECT_DOUBLE_EQ(d.total_power, 45.0);
  EXPECT_DOUBLE_EQ(d.throughput_ips, 0.0);
  EXPECT_TRUE(std::isinf(d.energy_per_instruction()));
}

TEST(DetailedEstimate, ThroughputSumsOverBusyCores) {
  const World w(fleet());
  Assignment one = Assignment::empty(4);
  one.per_core[0].push_back(0);
  const Eq10Estimate d1 = w.eq10(one);
  Assignment two = one;
  two.per_core[2].push_back(0);  // same process class on the other die
  const Eq10Estimate d2 = w.eq10(two);
  EXPECT_NEAR(d2.throughput_ips, 2.0 * d1.throughput_ips, 1e-6);
}

TEST(DetailedEstimate, EnergyPerInstructionIsConsistent) {
  const World w(fleet());
  Assignment a = Assignment::empty(4);
  a.per_core[0].push_back(0);
  a.per_core[1].push_back(1);
  const Eq10Estimate d = w.eq10(a);
  EXPECT_GT(d.throughput_ips, 0.0);
  EXPECT_NEAR(d.energy_per_instruction(), d.total_power / d.throughput_ips,
              1e-15);
}

TEST(DetailedEstimate, TimeSharedCoreAveragesItsCombinations) {
  // Eq. 10: a time-shared core makes the die the plain average of its
  // one-process-per-core combinations.
  const World w(fleet());
  Assignment a = Assignment::empty(4);
  a.per_core[0] = {0, 1};
  a.per_core[1] = {2};
  Assignment first = Assignment::empty(4);
  first.per_core[0] = {0};
  first.per_core[1] = {2};
  Assignment second = Assignment::empty(4);
  second.per_core[0] = {1};
  second.per_core[1] = {2};
  const Eq10Estimate d = w.eq10(a);
  EXPECT_DOUBLE_EQ(d.total_power,
                   (w.eq10(first).total_power + w.eq10(second).total_power) /
                       2.0);
  EXPECT_EQ(d.throughput_ips, (w.eq10(first).throughput_ips +
                               w.eq10(second).throughput_ips) /
                                  2.0);
}

TEST(OptimizeAssignment, EnergyObjectiveReportsItsValue) {
  const World w(fleet());
  const std::vector<ProcessHandle> procs{0, 1, 2};
  const AssignmentSearchResult r = optimize_assignment(
      w.eng, procs, AssignmentObjective::kEnergyPerInstruction);
  EXPECT_GT(r.prediction.throughput_ips, 0.0);
  EXPECT_NEAR(r.objective_value,
              r.prediction.total_power / r.prediction.throughput_ips, 1e-12);
}

TEST(OptimizeAssignment, ObjectivesCanDisagree) {
  // Min-power and min-energy need not coincide: spreading work can
  // cost more watts but finish instructions faster. At minimum the two
  // searches must each be optimal for their own metric.
  const World w(fleet());
  const std::vector<ProcessHandle> procs{0, 1, 2};
  const auto by_power =
      optimize_assignment(w.eng, procs, AssignmentObjective::kPower);
  const auto by_energy = optimize_assignment(
      w.eng, procs, AssignmentObjective::kEnergyPerInstruction);
  const auto energy_of = [&](const Assignment& a) {
    return w.predict(a).energy_per_instruction();
  };
  EXPECT_LE(by_power.prediction.total_power,
            by_energy.prediction.total_power + 1e-9);
  EXPECT_LE(energy_of(by_energy.assignment),
            energy_of(by_power.assignment) + 1e-15);
}

TEST(DieWideMode, MatchesPaperModeWhenNoTimeSharing) {
  // One process per core: Eq. 10 has one combination, which is the
  // engine's own query.
  const World w({worker(), sprinter()});
  Assignment a = Assignment::empty(4);
  a.per_core[0].push_back(0);
  a.per_core[1].push_back(1);
  EXPECT_NEAR(w.eq10(a).total_power, w.predict(a).total_power, 0.02);
}

TEST(DieWideMode, TimeSharedHogsPredictHigherMissRatesThanPaperMode) {
  // Four cache-hungry processes on ONE core: Eq. 10 prices each at the
  // full-cache point; the engine splits the cache four ways,
  // predicting slower, lower-powered execution.
  const World w({worker()});
  Assignment a = Assignment::empty(4);
  a.per_core[0] = {0, 0, 0, 0};

  const Eq10Estimate d_paper = w.eq10(a);
  const SystemPrediction d_wide = w.predict(a);
  EXPECT_LT(d_wide.throughput_ips, d_paper.throughput_ips);
  EXPECT_LT(d_wide.total_power, d_paper.total_power);
}

TEST(DieWideMode, IdleMachineUnchanged) {
  const World w({worker()});
  EXPECT_DOUBLE_EQ(w.predict(Assignment::empty(4)).total_power, 45.0);
}

}  // namespace
}  // namespace repro::engine

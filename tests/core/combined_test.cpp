// The combined model (§5) on simulator-backed profiles: the Eq. 10
// estimate and the Fig. 1 incremental form against measured power, and
// the exhaustive assignment search.
#include "repro/core/combined.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "repro/engine/assignment.hpp"
#include "repro/sim/system.hpp"
#include "repro/workload/generator.hpp"

namespace repro::core {
namespace {

// Shared fixture state: profiling + power-model training once. The
// engine registers the profiles in order, so profile indices double as
// engine handles.
struct CombinedWorld {
  sim::MachineConfig machine = sim::two_core_workstation();
  power::OracleConfig oracle = power::oracle_for_two_core_workstation();
  std::vector<ProcessProfile> profiles;
  std::unique_ptr<engine::ModelEngine> eng;

  CombinedWorld() {
    const StressmarkProfiler profiler(machine, oracle);
    for (const char* name : {"gzip", "mcf", "vpr", "equake"})
      profiles.push_back(profiler.profile(workload::find_spec(name)));

    PowerTrainerOptions opt;
    opt.warmup = 0.02;
    opt.run_per_workload = 0.24;
    opt.run_per_microbench = 0.09;
    opt.run_idle = 0.3;
    PowerModel model = PowerModel::train(machine, oracle,
                                         {"gzip", "mcf", "art", "equake"},
                                         opt);
    eng = std::make_unique<engine::ModelEngine>(machine, std::move(model));
    for (const ProcessProfile& p : profiles) eng->register_process(p);
  }

  /// The paper's §5 estimate (Eq. 10/11).
  Watts estimate(const Assignment& a) const {
    return engine::estimate_eq10(*eng, *eng->snapshot(), a).total_power;
  }
  Watts idle_total() const { return eng->power_model().idle_total(); }

  static const CombinedWorld& instance() {
    static const CombinedWorld world;
    return world;
  }

  std::size_t index(const std::string& name) const {
    for (std::size_t i = 0; i < profiles.size(); ++i)
      if (profiles[i].name == name) return i;
    throw Error("unknown profile " + name);
  }

  /// Measured mean power for an assignment, from the simulator.
  Watts simulate(const Assignment& a, std::uint64_t seed) const {
    sim::SystemConfig cfg;
    cfg.machine = machine;
    sim::System system(cfg, oracle, seed);
    for (CoreId c = 0; c < machine.cores; ++c)
      for (std::size_t idx : a.per_core[c]) {
        const auto& spec = workload::find_spec(profiles[idx].name);
        system.add_process(spec.name, c, spec.mix,
                           std::make_unique<workload::StackDistanceGenerator>(
                               spec, machine.l2.sets));
      }
    system.warm_up(0.04);
    return system.run(0.3).mean_measured_power();
  }
};

Assignment assign(const CombinedWorld& w,
                  std::vector<std::vector<const char*>> layout) {
  Assignment a = Assignment::empty(w.machine.cores);
  for (std::size_t c = 0; c < layout.size(); ++c)
    for (const char* name : layout[c])
      a.per_core[c].push_back(w.index(name));
  return a;
}

TEST(Assignment, ValidatesShape) {
  Assignment a = Assignment::empty(2);
  a.per_core[0].push_back(0);
  EXPECT_EQ(a.process_count(), 1u);
  EXPECT_NO_THROW(a.validate(2, 1));
  EXPECT_THROW(a.validate(3, 1), Error);
  a.per_core[1].push_back(7);
  EXPECT_THROW(a.validate(2, 1), Error);
}

TEST(CombinedModel, EmptyAssignmentIsIdlePower) {
  const CombinedWorld& w = CombinedWorld::instance();
  const Assignment a = Assignment::empty(w.machine.cores);
  EXPECT_NEAR(w.estimate(a), w.idle_total(), 1e-9);
}

TEST(CombinedModel, SingleProcessMatchesProfiledAlonePower) {
  const CombinedWorld& w = CombinedWorld::instance();
  const Assignment a = assign(w, {{"equake"}, {}});
  const Watts est = w.estimate(a);
  const Watts alone = w.profiles[w.index("equake")].power_alone;
  EXPECT_NEAR(est / alone, 1.0, 0.06);
}

TEST(CombinedModel, OneProcessPerCoreWithinFewPercentOfMeasured) {
  const CombinedWorld& w = CombinedWorld::instance();
  for (auto layout : {std::pair{"gzip", "mcf"}, std::pair{"vpr", "equake"},
                      std::pair{"mcf", "vpr"}}) {
    const Assignment a = assign(w, {{layout.first}, {layout.second}});
    const Watts est = w.estimate(a);
    const Watts meas = w.simulate(a, 101);
    EXPECT_NEAR(est / meas, 1.0, 0.08)
        << layout.first << "+" << layout.second << " est " << est
        << " meas " << meas;
  }
}

TEST(CombinedModel, TimeSharedCoreWithinFewPercentOfMeasured) {
  const CombinedWorld& w = CombinedWorld::instance();
  const Assignment a = assign(w, {{"gzip", "mcf"}, {"vpr", "equake"}});
  const Watts est = w.estimate(a);
  const Watts meas = w.simulate(a, 102);
  EXPECT_NEAR(est / meas, 1.0, 0.08) << "est " << est << " meas " << meas;
}

TEST(CombinedModel, AllProcessesOnOneCoreWithinFewPercent) {
  // The paper's easiest scenario (Table 4, "3 cores unused"): no cache
  // contention at all, so errors should be smallest.
  const CombinedWorld& w = CombinedWorld::instance();
  const Assignment a = assign(w, {{"gzip", "mcf", "vpr", "equake"}, {}});
  const Watts est = w.estimate(a);
  const Watts meas = w.simulate(a, 103);
  EXPECT_NEAR(est / meas, 1.0, 0.06) << "est " << est << " meas " << meas;
}

TEST(CombinedModel, MoreLoadNeverPredictsLessPowerThanIdle) {
  const CombinedWorld& w = CombinedWorld::instance();
  const Assignment b = assign(w, {{"mcf"}, {"vpr"}});
  EXPECT_GT(w.estimate(b), w.idle_total());
}

TEST(CombinedModel, Fig1IncrementalMatchesPureEstimate) {
  // With current powers taken from the pure model at the current
  // assignment, the incremental Fig. 1 path must approximate the pure
  // estimate of the grown assignment.
  const CombinedWorld& w = CombinedWorld::instance();
  const Assignment current = assign(w, {{"gzip"}, {}});
  // Current per-core powers: core 0 runs gzip alone, core 1 idle.
  const PowerModel model = w.eng->power_model();
  std::vector<Watts> core_power(w.machine.cores, model.idle_core());
  const auto& gzip = w.profiles[w.index("gzip")];
  core_power[0] += process_dynamic_power(model, gzip.alone, gzip.alone.spi,
                                         gzip.alone.l2mpr);

  const auto mcf = static_cast<engine::ProcessHandle>(w.index("mcf"));
  const Watts incremental = engine::estimate_after_assign(
      *w.eng, *w.eng->snapshot(), current, mcf, 1, core_power);
  Assignment grown = current;
  grown.per_core[1].push_back(mcf);
  const Watts pure = w.estimate(grown);
  EXPECT_NEAR(incremental / pure, 1.0, 0.05);
}

TEST(AssignmentOptimizer, ExhaustiveFindsTheMinimumPlacement) {
  const CombinedWorld& w = CombinedWorld::instance();
  const std::vector<engine::ProcessHandle> procs{0, 1, 2, 3};
  const auto best = engine::optimize_assignment(*w.eng, procs);
  EXPECT_EQ(best.assignment.process_count(), w.profiles.size());
  for (const Assignment& a : engine::placements(procs, w.machine.cores)) {
    engine::CoScheduleQuery q;
    q.assignment = a;
    EXPECT_LE(best.prediction.total_power, w.eng->predict(q).total_power);
  }
}

}  // namespace
}  // namespace repro::core

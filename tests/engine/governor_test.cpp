// Tests for the power-capping Governor: feasibility against the
// planning cap, optimality at exhaustive scale, determinism, and the
// degraded (over-budget) search mode.
#include "repro/engine/governor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "repro/sim/machine.hpp"

namespace repro::engine {
namespace {

core::ProcessProfile profile_of(std::string name, core::ReuseHistogram hist,
                                double api, double alpha, double beta,
                                Hertz fit) {
  core::ProcessProfile p;
  p.name = name;
  p.features.name = std::move(name);
  p.features.histogram = std::move(hist);
  p.features.api = api;
  p.features.alpha = alpha;
  p.features.beta = beta;
  p.features.fit_frequency = fit;
  p.alone.l1rpi = 0.33;
  p.alone.l2rpi = api;
  p.alone.brpi = 0.15;
  p.alone.fppi = 0.05;
  p.alone.l2mpr = p.features.histogram.mpa(16.0);
  p.alone.spi = p.features.spi_at(p.alone.l2mpr);
  p.power_alone = 55.0;
  return p;
}

core::PowerModel model() {
  return core::PowerModel(45.0, {6e-9, 2e-8, -3e-7, 4e-9, 5e-9}, 4);
}

struct Rig {
  sim::MachineConfig machine = sim::four_core_server();
  ModelEngine eng{machine, model()};
  std::vector<ProcessHandle> handles;

  Rig() {
    const Hertz f = machine.frequency;
    handles.push_back(eng.register_process(profile_of(
        "hog", core::ReuseHistogram(std::vector<double>(12, 0.07), 0.16),
        0.04, 4e-9, 6e-10, f)));
    handles.push_back(eng.register_process(profile_of(
        "sprinter", core::ReuseHistogram({0.6, 0.25, 0.1}, 0.05), 0.01,
        8e-10, 4e-10, f)));
    handles.push_back(eng.register_process(profile_of(
        "streamer", core::ReuseHistogram({0.1, 0.1, 0.1}, 0.7), 0.08,
        2e-9, 5e-10, f)));
  }

  /// Predicted (power, throughput) of the one-per-core full-speed plan.
  SystemPrediction full_speed() const {
    CoScheduleQuery q;
    q.assignment = core::Assignment::empty(machine.cores);
    for (std::size_t p = 0; p < handles.size(); ++p)
      q.assignment.per_core[p].push_back(handles[p]);
    return eng.predict(q);
  }

  /// Same plan with every core at the lowest DVFS level.
  SystemPrediction slowest() const {
    CoScheduleQuery q;
    q.assignment = core::Assignment::empty(machine.cores);
    for (std::size_t p = 0; p < handles.size(); ++p)
      q.assignment.per_core[p].push_back(handles[p]);
    q.core_frequency.assign(machine.cores, machine.dvfs_levels.front());
    return eng.predict(q);
  }
};

TEST(Governor, ValidatesItsPreconditions) {
  Rig rig;
  GovernorOptions opt;
  opt.power_cap = 0.0;  // a cap is required
  EXPECT_THROW(Governor(rig.eng, opt), Error);
  opt.power_cap = 60.0;
  opt.margin = 1.0;  // margin must leave a positive planning cap
  EXPECT_THROW(Governor(rig.eng, opt), Error);
  opt.margin = 0.02;
  opt.max_candidates = 0;
  EXPECT_THROW(Governor(rig.eng, opt), Error);

  ModelEngine perf_only(rig.machine);  // no power model, no cap search
  GovernorOptions ok;
  ok.power_cap = 60.0;
  EXPECT_THROW(Governor(perf_only, ok), Error);
}

TEST(Governor, FeasibleDecisionHonorsPlanningCap) {
  Rig rig;
  const SystemPrediction full = rig.full_speed();
  const SystemPrediction slow = rig.slowest();
  GovernorOptions opt;
  opt.power_cap =
      slow.total_power + 0.7 * (full.total_power - slow.total_power);
  const Governor gov(rig.eng, opt);
  const GovernorDecision d = gov.plan(rig.handles);

  EXPECT_TRUE(d.feasible);
  EXPECT_TRUE(d.exhaustive);
  EXPECT_GT(d.evaluated, 0u);
  EXPECT_LE(d.prediction.total_power,
            opt.power_cap * (1.0 - opt.margin) + 1e-9);
  ASSERT_EQ(d.core_frequency.size(), rig.machine.cores);
  for (Hertz hz : d.core_frequency) EXPECT_GT(hz, 0.0);
  EXPECT_EQ(d.assignment.process_count(), rig.handles.size());
  // The cap bites (full speed is over it), so something was slowed or
  // packed and throughput cannot exceed the unconstrained plan's.
  EXPECT_GT(full.total_power, opt.power_cap);
  EXPECT_LE(d.prediction.throughput_ips, full.throughput_ips);
}

TEST(Governor, GenerousCapRecoversFullThroughput) {
  Rig rig;
  const SystemPrediction full = rig.full_speed();
  GovernorOptions opt;
  opt.power_cap = 10.0 * full.total_power;
  const Governor gov(rig.eng, opt);
  const GovernorDecision d = gov.plan(rig.handles);
  EXPECT_TRUE(d.feasible);
  // With everything feasible the governor maximizes throughput over a
  // space that includes the full-speed balanced plan.
  EXPECT_GE(d.prediction.throughput_ips, full.throughput_ips * (1 - 1e-12));
}

TEST(Governor, UnreachableCapReturnsBestEffortMinPower) {
  Rig rig;
  GovernorOptions opt;
  opt.power_cap = 1.0;  // below idle: nothing can satisfy it
  const Governor gov(rig.eng, opt);
  const GovernorDecision d = gov.plan(rig.handles);
  EXPECT_FALSE(d.feasible);
  EXPECT_EQ(d.assignment.process_count(), rig.handles.size());
  // Best effort = power-minimal candidate: it cannot beat the all-min
  // clock plan's power by more than rounding, and must not exceed the
  // slowest balanced plan we can price directly.
  EXPECT_LE(d.prediction.total_power, rig.slowest().total_power + 1e-9);
}

TEST(Governor, PlansAreDeterministic) {
  Rig rig;
  const SystemPrediction full = rig.full_speed();
  GovernorOptions opt;
  opt.power_cap = 0.95 * full.total_power;
  const Governor gov(rig.eng, opt);
  const GovernorDecision a = gov.plan(rig.handles);
  const GovernorDecision b = gov.plan(rig.handles);
  EXPECT_EQ(a.assignment.per_core, b.assignment.per_core);
  EXPECT_EQ(a.core_frequency, b.core_frequency);
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.prediction.total_power, b.prediction.total_power);
}

TEST(Governor, FrequencyOnlyPlanKeepsTheAssignment) {
  Rig rig;
  core::Assignment fixed = core::Assignment::empty(rig.machine.cores);
  fixed.per_core[0] = {rig.handles[0], rig.handles[1]};
  fixed.per_core[2] = {rig.handles[2]};
  const SystemPrediction full = rig.full_speed();
  GovernorOptions opt;
  opt.power_cap = 0.97 * full.total_power;
  const Governor gov(rig.eng, opt);
  const GovernorDecision d = gov.plan(fixed);
  EXPECT_EQ(d.assignment.per_core, fixed.per_core);
  EXPECT_TRUE(d.exhaustive);
}

TEST(Governor, OverBudgetSearchDegradesButStaysFeasible) {
  Rig rig;
  const SystemPrediction full = rig.full_speed();
  GovernorOptions opt;
  opt.power_cap = 2.0 * full.total_power;  // everything is feasible
  opt.max_candidates = 4;  // force the degraded path
  const Governor gov(rig.eng, opt);
  const GovernorDecision d = gov.plan(rig.handles);
  EXPECT_FALSE(d.exhaustive);
  EXPECT_TRUE(d.feasible);
  EXPECT_GT(d.evaluated, 0u);
  EXPECT_EQ(d.assignment.process_count(), rig.handles.size());
}

/// Every SystemPrediction field, compared with ==.
void expect_same_prediction(const SystemPrediction& a,
                            const SystemPrediction& b) {
  ASSERT_EQ(a.processes.size(), b.processes.size());
  for (std::size_t i = 0; i < a.processes.size(); ++i) {
    const ProcessOperatingPoint& x = a.processes[i];
    const ProcessOperatingPoint& y = b.processes[i];
    EXPECT_EQ(x.handle, y.handle);
    EXPECT_EQ(x.core, y.core);
    EXPECT_EQ(x.cpu_share, y.cpu_share);
    EXPECT_EQ(x.prediction.effective_size, y.prediction.effective_size);
    EXPECT_EQ(x.prediction.mpa, y.prediction.mpa);
    EXPECT_EQ(x.prediction.spi, y.prediction.spi);
    EXPECT_EQ(x.prediction.aps, y.prediction.aps);
    EXPECT_EQ(x.dynamic_power, y.dynamic_power);
  }
  EXPECT_EQ(a.core_power, b.core_power);
  EXPECT_EQ(a.total_power, b.total_power);
  EXPECT_EQ(a.throughput_ips, b.throughput_ips);
  EXPECT_EQ(a.solver_iterations, b.solver_iterations);
  EXPECT_EQ(a.solver_fallbacks, b.solver_fallbacks);
  EXPECT_EQ(a.degraded, b.degraded);
}

/// Whether `a` beats `b` under the governor's documented order:
/// feasible first, then higher throughput, then lower power. An equal
/// candidate does not beat, so the earlier one wins.
bool beats(const SystemPrediction& a, const SystemPrediction& b,
           Watts planning_cap) {
  const bool a_fits = a.total_power <= planning_cap;
  const bool b_fits = b.total_power <= planning_cap;
  if (a_fits != b_fits) return a_fits;
  if (!a_fits) return a.total_power < b.total_power;
  return a.throughput_ips > b.throughput_ips ||
         (a.throughput_ips == b.throughput_ips &&
          a.total_power < b.total_power);
}

std::size_t best_of(std::span<const SystemPrediction> priced,
                    Watts planning_cap) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < priced.size(); ++i)
    if (beats(priced[i], priced[best], planning_cap)) best = i;
  return best;
}

/// The exhaustive candidate set, enumerated independently of the
/// governor: every placement (process 0 the slowest digit) × every
/// busy-core level tuple (last busy core the fastest digit), idle cores
/// at the lowest level.
std::vector<CoScheduleQuery> exhaustive_set(
    const sim::MachineConfig& m, std::span<const ProcessHandle> procs) {
  const std::vector<Hertz>& levels = m.dvfs_levels;
  std::vector<CoScheduleQuery> out;
  std::vector<CoreId> place(procs.size(), 0);
  while (true) {
    core::Assignment a = core::Assignment::empty(m.cores);
    for (std::size_t p = 0; p < procs.size(); ++p)
      a.per_core[place[p]].push_back(procs[p]);
    std::vector<CoreId> busy;
    for (CoreId c = 0; c < m.cores; ++c)
      if (!a.per_core[c].empty()) busy.push_back(c);
    std::vector<std::size_t> digit(busy.size(), 0);
    while (true) {
      CoScheduleQuery q;
      q.assignment = a;
      q.core_frequency.assign(m.cores, levels.front());
      for (std::size_t b = 0; b < busy.size(); ++b)
        q.core_frequency[busy[b]] = levels[digit[b]];
      out.push_back(std::move(q));
      std::size_t b = busy.size();
      while (b > 0 && ++digit[b - 1] == levels.size()) digit[--b] = 0;
      if (b == 0) break;
    }
    std::size_t p = procs.size();
    while (p > 0 && ++place[p - 1] == m.cores) place[--p] = 0;
    if (p == 0) break;
  }
  return out;
}

void expect_same_decision(const GovernorDecision& got,
                          const GovernorDecision& want) {
  EXPECT_EQ(got.assignment.per_core, want.assignment.per_core);
  EXPECT_EQ(got.core_frequency, want.core_frequency);
  expect_same_prediction(got.prediction, want.prediction);
  EXPECT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(got.exhaustive, want.exhaustive);
  EXPECT_EQ(got.evaluated, want.evaluated);
}

/// The over-budget search replayed with predict_batch: the round-robin
/// placement at each uniform level, then single cores stepped up one
/// level at a time while a feasible step raises throughput.
GovernorDecision greedy_reference(const Rig& rig, const GovernorOptions& opt) {
  const std::vector<Hertz>& levels = rig.machine.dvfs_levels;
  const Watts planning_cap = opt.power_cap * (1.0 - opt.margin);
  core::Assignment rr = core::Assignment::empty(rig.machine.cores);
  std::vector<CoreId> busy;
  for (std::size_t p = 0; p < rig.handles.size(); ++p) {
    rr.per_core[p % rig.machine.cores].push_back(rig.handles[p]);
    busy.push_back(static_cast<CoreId>(p % rig.machine.cores));
  }
  std::vector<CoScheduleQuery> uniform;
  for (const Hertz level : levels) {
    CoScheduleQuery& q = uniform.emplace_back();
    q.assignment = rr;
    q.core_frequency.assign(rig.machine.cores, levels.front());
    for (const CoreId c : busy) q.core_frequency[c] = level;
  }
  const std::vector<SystemPrediction> priced = rig.eng.predict_batch(uniform);
  const std::size_t best = best_of(priced, planning_cap);

  GovernorDecision want;
  want.assignment = rr;
  want.core_frequency = uniform[best].core_frequency;
  want.prediction = priced[best];
  want.feasible = priced[best].total_power <= planning_cap;
  want.exhaustive = false;
  want.evaluated = uniform.size();
  bool improved = want.feasible;
  while (improved) {
    improved = false;
    std::vector<CoScheduleQuery> variants;
    for (const CoreId c : busy) {
      const auto at =
          std::find(levels.begin(), levels.end(), want.core_frequency[c]);
      if (at + 1 == levels.end()) continue;
      CoScheduleQuery& q = variants.emplace_back();
      q.assignment = rr;
      q.core_frequency = want.core_frequency;
      q.core_frequency[c] = *(at + 1);
    }
    if (variants.empty()) break;
    const std::vector<SystemPrediction> stepped =
        rig.eng.predict_batch(variants);
    want.evaluated += stepped.size();
    std::size_t pick = stepped.size();
    for (std::size_t i = 0; i < stepped.size(); ++i) {
      if (stepped[i].total_power > planning_cap) continue;
      const double best_ips = pick < stepped.size()
                                  ? stepped[pick].throughput_ips
                                  : want.prediction.throughput_ips;
      if (stepped[i].throughput_ips > best_ips) pick = i;
    }
    if (pick < stepped.size()) {
      want.core_frequency = variants[pick].core_frequency;
      want.prediction = stepped[pick];
      improved = true;
    }
  }
  return want;
}

TEST(Governor, DecisionMatchesExhaustivePredictBatchBitForBit) {
  Rig rig;
  const SystemPrediction full = rig.full_speed();
  const SystemPrediction slow = rig.slowest();
  const std::vector<CoScheduleQuery> set =
      exhaustive_set(rig.machine, rig.handles);
  ASSERT_EQ(set.size(), 2128u);  // 64 placements × busy-core tuples
  const std::vector<SystemPrediction> priced = rig.eng.predict_batch(set);

  // Binding: the planning cap (after the default margin) sits 70% of
  // the way from the slowest to the full-speed round-robin plan.
  const Watts binding =
      (slow.total_power + 0.7 * (full.total_power - slow.total_power)) /
      (1.0 - GovernorOptions{}.margin);
  const Watts generous = 10.0 * full.total_power;
  const Watts unreachable = 1.0;  // below idle
  for (const Watts cap : {binding, generous, unreachable}) {
    SCOPED_TRACE(cap);
    GovernorOptions opt;
    opt.power_cap = cap;
    const Watts planning_cap = cap * (1.0 - opt.margin);
    const std::size_t best = best_of(priced, planning_cap);
    GovernorDecision want;
    want.assignment = set[best].assignment;
    want.core_frequency = set[best].core_frequency;
    want.prediction = priced[best];
    want.feasible = priced[best].total_power <= planning_cap;
    want.exhaustive = true;
    want.evaluated = set.size();
    EXPECT_EQ(want.feasible, cap != unreachable);
    expect_same_decision(Governor(rig.eng, opt).plan(rig.handles), want);
  }

  // Over budget: uniform levels plus the greedy step-up, which takes at
  // least one step under the binding cap.
  for (const Watts cap : {binding, generous, unreachable}) {
    SCOPED_TRACE(cap);
    GovernorOptions opt;
    opt.power_cap = cap;
    opt.max_candidates = 4;
    const GovernorDecision want = greedy_reference(rig, opt);
    expect_same_decision(Governor(rig.eng, opt).plan(rig.handles), want);
    if (cap == binding) {
      EXPECT_GT(want.evaluated, rig.machine.dvfs_levels.size());
    }
  }
}

}  // namespace
}  // namespace repro::engine

#include "repro/engine/governor.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "repro/common/ensure.hpp"
#include "repro/engine/assignment.hpp"

namespace repro::engine {

namespace {

/// Cores hosting at least one process, ascending. Idle cores draw the
/// same Eq. 9 idle share at every level, so only these get a knob.
std::vector<CoreId> busy_cores(const core::Assignment& a) {
  std::vector<CoreId> out;
  for (CoreId c = 0; c < a.per_core.size(); ++c)
    if (!a.per_core[c].empty()) out.push_back(c);
  return out;
}

/// levels^count without overflow drama: saturates at `cap + 1`.
std::size_t tuple_count(std::size_t levels, std::size_t count,
                        std::size_t cap) {
  std::size_t total = 1;
  for (std::size_t i = 0; i < count; ++i) {
    if (total > cap / levels + 1) return cap + 1;
    total *= levels;
  }
  return total;
}

}  // namespace

Governor::Governor(const ModelEngine& engine, GovernorOptions options)
    : engine_(engine), options_(options) {
  REPRO_ENSURE(engine_.has_power_model(),
               "governor needs an engine with a power model: the cap is a "
               "power constraint");
  REPRO_ENSURE(options_.power_cap > 0.0, "governor needs a positive cap");
  REPRO_ENSURE(options_.margin >= 0.0 && options_.margin < 1.0,
               "planning margin must be in [0, 1)");
  REPRO_ENSURE(options_.max_candidates > 0, "candidate budget must be > 0");
  const sim::MachineConfig& m = engine_.machine();
  levels_ = m.dvfs_levels.empty() ? std::vector<Hertz>{m.frequency}
                                  : m.dvfs_levels;
}

GovernorDecision Governor::plan(
    std::span<const ProcessHandle> processes) const {
  REPRO_ENSURE(!processes.empty(), "governor needs processes to place");
  const std::uint32_t cores = engine_.machine().cores;

  std::vector<core::Assignment> assignments;
  if (tuple_count(cores, processes.size(), options_.max_candidates) <=
      options_.max_candidates) {
    assignments = placements(processes, cores);
  } else {
    // Over budget: balanced round-robin placement only, frequencies
    // stay the whole search space.
    core::Assignment a = core::Assignment::empty(cores);
    for (std::size_t p = 0; p < processes.size(); ++p)
      a.per_core[p % cores].push_back(processes[p]);
    assignments.push_back(std::move(a));
  }
  return choose(std::move(assignments));
}

GovernorDecision Governor::plan(const core::Assignment& assignment) const {
  return choose({assignment});
}

GovernorDecision Governor::choose(
    std::vector<core::Assignment> assignments) const {
  REPRO_ENSURE(!assignments.empty(), "governor needs candidates");
  const std::uint32_t cores = engine_.machine().cores;
  const Watts planning_cap = options_.power_cap * (1.0 - options_.margin);
  const std::size_t nlevels = levels_.size();

  // Candidate count under full per-core tuples; degrade to uniform
  // tuples when it blows the budget.
  std::vector<std::vector<CoreId>> busy;
  busy.reserve(assignments.size());
  std::size_t full_total = 0;
  for (const core::Assignment& a : assignments) {
    busy.push_back(busy_cores(a));
    if (full_total <= options_.max_candidates)
      full_total += tuple_count(nlevels, busy.back().size(),
                                options_.max_candidates);
  }
  const bool exhaustive = full_total <= options_.max_candidates;

  // Candidates are numbered in enumeration order: placement p owns
  // indices [first[p], first[p + 1]). Exhaustively, an index's offset
  // in that range counts the busy cores' level digits as an odometer
  // whose last busy core turns fastest; over budget it is one uniform
  // level for every busy core.
  std::vector<std::size_t> first(assignments.size() + 1, 0);
  for (std::size_t p = 0; p < assignments.size(); ++p)
    first[p + 1] =
        first[p] + (exhaustive ? tuple_count(nlevels, busy[p].size(),
                                             options_.max_candidates)
                               : nlevels);
  const auto placement_of = [&](std::size_t i) -> std::size_t {
    return static_cast<std::size_t>(
               std::upper_bound(first.begin(), first.end(), i) -
               first.begin()) -
           1;
  };
  // Fill candidate i's query in place. Idle cores contribute the same
  // idle share at any clock; pin them to the lowest level so the
  // reported operating point is the one an implementation would
  // actually program.
  const auto candidate = [&](std::size_t i,
                             CoScheduleQuery& q) -> const CoScheduleQuery& {
    const std::size_t p = placement_of(i);
    const std::vector<CoreId>& on = busy[p];
    std::size_t digits = i - first[p];
    q.assignment.per_core = assignments[p].per_core;
    q.partition.clear();
    q.warm_start.clear();
    q.core_frequency.assign(cores, levels_.front());
    if (exhaustive) {
      for (std::size_t b = on.size(); b-- > 0; digits /= nlevels)
        q.core_frequency[on[b]] = levels_[digits % nlevels];
    } else {
      for (CoreId c : on) q.core_frequency[c] = levels_[digits];
    }
    return q;
  };

  // Only two numbers per candidate survive the pricing.
  struct Priced {
    double throughput_ips = 0.0;
    Watts total_power = 0.0;
  };
  std::vector<Priced> priced(first.back());
  const auto keep = [&](std::size_t i, const SystemPrediction& p) {
    priced[i] = {p.throughput_ips, p.total_power};
  };

  // One snapshot for the whole plan: every candidate, and the winner's
  // re-price below, prices against the same epoch.
  const std::shared_ptr<const EngineSnapshot> snap = engine_.snapshot();
  engine_.predict_each(*snap, priced.size(), candidate, keep);
  std::size_t evaluated = priced.size();

  // Feasible candidate with the highest predicted throughput; ties
  // break toward lower power, then enumeration order (deterministic).
  // If nothing fits the cap, fall back to the power-minimal point.
  std::size_t best = 0;
  bool best_feasible = false;
  for (std::size_t i = 0; i < priced.size(); ++i) {
    const bool fits = priced[i].total_power <= planning_cap;
    if (fits && !best_feasible) {
      best = i;
      best_feasible = true;
      continue;
    }
    if (fits == best_feasible) {
      const Priced& a = priced[i];
      const Priced& b = priced[best];
      const bool better =
          best_feasible
              ? (a.throughput_ips > b.throughput_ips ||
                 (a.throughput_ips == b.throughput_ips &&
                  a.total_power < b.total_power))
              : a.total_power < b.total_power;
      if (better) best = i;
    }
  }

  CoScheduleQuery chosen;
  candidate(best, chosen);

  if (!exhaustive && best_feasible) {
    // Greedy refinement of the uniform-frequency winner: step one busy
    // core up a level at a time, keeping the best feasible variant,
    // until no single step helps. Bounded by busy·levels predictions.
    const std::vector<CoreId>& on = busy[placement_of(best)];
    double chosen_ips = priced[best].throughput_ips;
    std::vector<std::pair<CoreId, Hertz>> steps;  // (core, next level)
    bool improved = true;
    while (improved) {
      improved = false;
      steps.clear();
      for (CoreId c : on) {
        const auto at = std::find(levels_.begin(), levels_.end(),
                                  chosen.core_frequency[c]);
        if (at == levels_.end() || at + 1 == levels_.end()) continue;
        steps.emplace_back(c, *(at + 1));
      }
      if (steps.empty()) break;
      priced.assign(steps.size(), Priced{});
      engine_.predict_each(
          *snap, steps.size(),
          [&](std::size_t i, CoScheduleQuery& q) -> const CoScheduleQuery& {
            q.assignment.per_core = chosen.assignment.per_core;
            q.partition.clear();
            q.warm_start.clear();
            q.core_frequency = chosen.core_frequency;
            q.core_frequency[steps[i].first] = steps[i].second;
            return q;
          },
          keep);
      evaluated += steps.size();
      std::size_t step = steps.size();
      for (std::size_t i = 0; i < steps.size(); ++i) {
        if (priced[i].total_power > planning_cap) continue;
        if (priced[i].throughput_ips <= chosen_ips) continue;
        chosen_ips = priced[i].throughput_ips;
        step = i;
        improved = true;
      }
      if (improved)
        chosen.core_frequency[steps[step].first] = steps[step].second;
    }
  }

  // The winner's full prediction: one more predict_on, not counted in
  // `evaluated`, bit-identical to its priced candidate.
  GovernorDecision decision;
  decision.prediction = engine_.predict(*snap, chosen);
  decision.assignment = std::move(chosen.assignment);
  decision.core_frequency = std::move(chosen.core_frequency);
  decision.feasible = best_feasible;
  decision.exhaustive = exhaustive;
  decision.evaluated = evaluated;
  return decision;
}

}  // namespace repro::engine

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
  std::size_t full_total = 0;
  for (const core::Assignment& a : assignments) {
    full_total += tuple_count(nlevels, busy_cores(a).size(),
                              options_.max_candidates);
    if (full_total > options_.max_candidates) break;
  }
  const bool exhaustive = full_total <= options_.max_candidates;

  // One query per candidate; owner[i] indexes query i's placement in
  // `assignments`, and its clocks are the query's core_frequency.
  std::vector<CoScheduleQuery> queries;
  std::vector<std::size_t> owner;
  queries.reserve(exhaustive ? full_total : assignments.size() * nlevels);
  owner.reserve(queries.capacity());
  const auto add_candidate = [&](std::size_t idx, std::vector<Hertz> freq) {
    CoScheduleQuery& q = queries.emplace_back();
    q.assignment = assignments[idx];
    q.core_frequency = std::move(freq);
    owner.push_back(idx);
  };

  for (std::size_t idx = 0; idx < assignments.size(); ++idx) {
    const std::vector<CoreId> busy = busy_cores(assignments[idx]);
    // Idle cores contribute the same idle share at any clock; pin them
    // to the lowest level so the reported operating point is the one
    // an implementation would actually program.
    std::vector<Hertz> base(cores, levels_.front());
    if (exhaustive) {
      std::vector<std::size_t> digit(busy.size(), 0);
      while (true) {
        std::vector<Hertz> freq = base;
        for (std::size_t b = 0; b < busy.size(); ++b)
          freq[busy[b]] = levels_[digit[b]];
        add_candidate(idx, std::move(freq));
        std::size_t b = busy.size();
        while (b > 0 && ++digit[b - 1] == nlevels) digit[--b] = 0;
        if (b == 0) break;
      }
    } else {
      for (Hertz level : levels_) {
        std::vector<Hertz> freq = base;
        for (CoreId c : busy) freq[c] = level;
        add_candidate(idx, std::move(freq));
      }
    }
  }

  // One snapshot for the whole plan: every candidate prices against
  // the same epoch.
  const std::shared_ptr<const EngineSnapshot> snap = engine_.snapshot();
  std::vector<SystemPrediction> priced =
      engine_.predict_batch(*snap, queries);
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
      const SystemPrediction& a = priced[i];
      const SystemPrediction& b = priced[best];
      const bool better =
          best_feasible
              ? (a.throughput_ips > b.throughput_ips ||
                 (a.throughput_ips == b.throughput_ips &&
                  a.total_power < b.total_power))
              : a.total_power < b.total_power;
      if (better) best = i;
    }
  }

  struct Candidate {
    std::size_t assignment = 0;
    std::vector<Hertz> freq;  // per core
  };
  Candidate chosen{owner[best], queries[best].core_frequency};
  SystemPrediction chosen_pred = priced[best];

  if (!exhaustive && best_feasible) {
    // Greedy refinement of the uniform-frequency winner: step one busy
    // core up a level at a time, keeping the best feasible variant,
    // until no single step helps. Bounded by busy·levels predictions.
    const std::vector<CoreId> busy = busy_cores(assignments[chosen.assignment]);
    bool improved = true;
    while (improved) {
      improved = false;
      std::vector<CoScheduleQuery> variants;
      std::vector<std::vector<Hertz>> variant_freqs;
      for (CoreId c : busy) {
        const auto at = std::find(levels_.begin(), levels_.end(),
                                  chosen.freq[c]);
        if (at == levels_.end() || at + 1 == levels_.end()) continue;
        std::vector<Hertz> freq = chosen.freq;
        freq[c] = *(at + 1);
        CoScheduleQuery q;
        q.assignment = assignments[chosen.assignment];
        q.core_frequency = freq;
        variants.push_back(std::move(q));
        variant_freqs.push_back(std::move(freq));
      }
      if (variants.empty()) break;
      const std::vector<SystemPrediction> stepped =
          engine_.predict_batch(*snap, variants);
      evaluated += stepped.size();
      for (std::size_t i = 0; i < stepped.size(); ++i) {
        if (stepped[i].total_power > planning_cap) continue;
        if (stepped[i].throughput_ips <= chosen_pred.throughput_ips) continue;
        chosen.freq = variant_freqs[i];
        chosen_pred = stepped[i];
        improved = true;
      }
    }
  }

  GovernorDecision decision;
  decision.assignment = assignments[chosen.assignment];
  decision.core_frequency = std::move(chosen.freq);
  decision.prediction = std::move(chosen_pred);
  decision.feasible = best_feasible;
  decision.exhaustive = exhaustive;
  decision.evaluated = evaluated;
  return decision;
}

}  // namespace repro::engine

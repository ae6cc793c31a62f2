#include "repro/engine/assignment.hpp"

#include <utility>

#include "repro/common/ensure.hpp"

namespace repro::engine {

namespace {

/// Appends one query per combination of `die` — one process per busy
/// core, the set running concurrently during one timeslice alignment —
/// enumerated as an odometer with the die's first busy core as the
/// fastest digit.
void append_combinations(const sim::MachineConfig& machine,
                         const core::Assignment& a, DieId die,
                         std::vector<CoScheduleQuery>* out) {
  std::vector<CoreId> busy;
  for (CoreId c : machine.cores_on_die(die))
    if (!a.per_core[c].empty()) busy.push_back(c);
  if (busy.empty()) return;

  std::vector<std::size_t> cursor(busy.size(), 0);
  while (true) {
    CoScheduleQuery q;
    q.assignment = core::Assignment::empty(machine.cores);
    for (std::size_t b = 0; b < busy.size(); ++b)
      q.assignment.per_core[busy[b]].push_back(
          a.per_core[busy[b]][cursor[b]]);
    out->push_back(std::move(q));
    std::size_t b = 0;
    while (b < busy.size() && ++cursor[b] == a.per_core[busy[b]].size())
      cursor[b++] = 0;
    if (b == busy.size()) break;
  }
}

struct DieAverage {
  Watts dynamic = 0.0;
  double ips = 0.0;
};

/// Eq. 10: equal-weight average of a die's priced combinations, each
/// summed over its processes in core order.
DieAverage average(std::span<const SystemPrediction> combinations) {
  REPRO_ENSURE(!combinations.empty(), "no combinations to average");
  DieAverage sum;
  for (const SystemPrediction& combination : combinations) {
    Watts dynamic = 0.0;
    double ips = 0.0;
    for (const ProcessOperatingPoint& p : combination.processes) {
      dynamic += p.dynamic_power;
      ips += 1.0 / p.prediction.spi;
    }
    sum.dynamic += dynamic;
    sum.ips += ips;
  }
  sum.dynamic /= static_cast<double>(combinations.size());
  sum.ips /= static_cast<double>(combinations.size());
  return sum;
}

}  // namespace

std::vector<core::Assignment> placements(
    std::span<const ProcessHandle> processes, std::uint32_t cores) {
  REPRO_ENSURE(cores > 0, "placements need at least one core");
  std::vector<core::Assignment> out;
  std::vector<CoreId> digit(processes.size(), 0);
  while (true) {
    core::Assignment a = core::Assignment::empty(cores);
    for (std::size_t p = 0; p < processes.size(); ++p)
      a.per_core[digit[p]].push_back(processes[p]);
    out.push_back(std::move(a));
    std::size_t p = processes.size();
    while (p > 0 && ++digit[p - 1] == cores) digit[--p] = 0;
    if (p == 0) break;
  }
  return out;
}

AssignmentSearchResult optimize_assignment(
    const ModelEngine& engine, std::span<const ProcessHandle> processes,
    AssignmentObjective objective) {
  REPRO_ENSURE(!processes.empty(), "nothing to assign");
  const std::shared_ptr<const EngineSnapshot> snap = engine.snapshot();
  REPRO_ENSURE(snap->has_power_model(),
               "assignment search needs an engine with a power model");

  std::vector<CoScheduleQuery> queries;
  for (core::Assignment& a : placements(processes, engine.machine().cores)) {
    CoScheduleQuery q;
    q.assignment = std::move(a);
    queries.push_back(std::move(q));
  }
  std::vector<SystemPrediction> priced = engine.predict_batch(*snap, queries);

  const auto value_of = [objective](const SystemPrediction& p) {
    return objective == AssignmentObjective::kPower
               ? p.total_power
               : p.energy_per_instruction();
  };
  std::size_t best = 0;
  for (std::size_t i = 1; i < priced.size(); ++i)
    if (value_of(priced[i]) < value_of(priced[best])) best = i;

  AssignmentSearchResult out;
  out.assignment = std::move(queries[best].assignment);
  out.objective_value = value_of(priced[best]);
  out.prediction = std::move(priced[best]);
  out.evaluated = priced.size();
  return out;
}

Eq10Estimate estimate_eq10(const ModelEngine& engine,
                           const EngineSnapshot& snapshot,
                           const core::Assignment& assignment) {
  const sim::MachineConfig& machine = engine.machine();
  REPRO_ENSURE(assignment.per_core.size() == machine.cores,
               "assignment core count mismatch");
  const Watts idle = snapshot.power_model().idle_total();

  // Every die's combinations in one batch; die d owns queries
  // [begin[d], begin[d + 1]).
  std::vector<CoScheduleQuery> queries;
  std::vector<std::size_t> begin{0};
  for (DieId d = 0; d < machine.dies; ++d) {
    append_combinations(machine, assignment, d, &queries);
    begin.push_back(queries.size());
  }
  const std::vector<SystemPrediction> priced =
      engine.predict_batch(snapshot, queries);

  Eq10Estimate out;
  out.total_power = idle;
  for (DieId d = 0; d < machine.dies; ++d) {
    if (begin[d] == begin[d + 1]) continue;
    const DieAverage die = average(std::span(priced).subspan(
        begin[d], begin[d + 1] - begin[d]));
    out.total_power += die.dynamic;
    out.throughput_ips += die.ips;
  }
  return out;
}

Watts estimate_after_assign(const ModelEngine& engine,
                            const EngineSnapshot& snapshot,
                            const core::Assignment& current,
                            ProcessHandle new_process, CoreId target_core,
                            std::span<const Watts> current_core_power) {
  const sim::MachineConfig& machine = engine.machine();
  REPRO_ENSURE(current.per_core.size() == machine.cores,
               "assignment core count mismatch");
  REPRO_ENSURE(target_core < machine.cores, "bad target core");
  REPRO_ENSURE(current_core_power.size() == machine.cores,
               "need one current power per core");
  const core::PowerModel& model = snapshot.power_model();
  const DieId die = machine.core_to_die[target_core];

  // Combination counts after the tentative assignment: |S_in| of them
  // include the new process, |S_ex| = total − |S_in| do not. P_ex is
  // the die's current dynamic power (measured via the model from live
  // rates).
  std::size_t in_count = 1;
  std::size_t total_count = 1;
  double p_ex = 0.0;
  for (CoreId c : machine.cores_on_die(die)) {
    const std::size_t q = current.per_core[c].size();
    if (q > 0) p_ex += current_core_power[c] - model.idle_core();
    if (c == target_core) {
      total_count *= q + 1;
    } else if (q > 0) {
      total_count *= q;
      in_count *= q;
    }
  }
  const std::size_t ex_count = total_count - in_count;

  // P_in: the combinations that include the new process are those of
  // the die with the target queue holding the new process alone.
  core::Assignment pinned = current;
  pinned.per_core[target_core] = {new_process};
  std::vector<CoScheduleQuery> queries;
  append_combinations(machine, pinned, die, &queries);
  const double p_in = average(engine.predict_batch(snapshot, queries)).dynamic;

  // Eq. 11 assembled in dynamic-power space: the die contributes the
  // combination-weighted average; idle power enters once for the
  // package; other dies contribute their current dynamic power.
  const double die_dynamic =
      ex_count == 0
          ? p_in
          : (p_ex * static_cast<double>(ex_count) +
             p_in * static_cast<double>(in_count)) /
                static_cast<double>(total_count);

  double rest_dynamic = 0.0;
  for (CoreId c = 0; c < machine.cores; ++c) {
    if (machine.core_to_die[c] == die || current.per_core[c].empty())
      continue;
    rest_dynamic += current_core_power[c] - model.idle_core();
  }
  return model.idle_total() + die_dynamic + rest_dynamic;
}

}  // namespace repro::engine

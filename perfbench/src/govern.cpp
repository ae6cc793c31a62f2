// govern: closed-loop control with writes beside reads. Each control
// epoch applies one try_apply profile revision (the next phase of one
// process, round robin), then calls Governor::plan for three processes
// under a cap anchored like bench_governor: slowest + 0.8·range,
// margin 0.05 — 2,128 (placement × per-core DVFS) candidates per plan.
#include <array>
#include <span>

#include "bench.hpp"
#include "repro/engine/governor.hpp"

namespace perfbench {

using namespace repro;

namespace {

/// The three processes planned in epoch `e`.
std::array<engine::ProcessHandle, 3> planned(std::uint64_t e) {
  return {static_cast<engine::ProcessHandle>(e % kProcesses),
          static_cast<engine::ProcessHandle>((e + 3) % kProcesses),
          static_cast<engine::ProcessHandle>((e + 6) % kProcesses)};
}

/// bench_governor's anchor: cap = slowest + 0.8·(full − slowest) for the
/// round-robin placement, full speed vs every core at the lowest level.
/// When the range is too narrow for the planning margin (the anchored
/// planning cap would sit below the slowest point), the cap widens just
/// enough to keep the slowest point feasible, so no plan fails by
/// construction; `widened` counts those epochs.
Watts anchored_cap(const engine::ModelEngine& eng,
                   std::span<const engine::ProcessHandle> procs, double margin,
                   std::uint64_t* widened) {
  const sim::MachineConfig& m = eng.machine();
  engine::CoScheduleQuery naive;
  naive.assignment = core::Assignment::empty(m.cores);
  for (std::size_t p = 0; p < procs.size(); ++p)
    naive.assignment.per_core[p % m.cores].push_back(procs[p]);
  const Watts full = eng.predict(naive).total_power;
  engine::CoScheduleQuery slow = naive;
  slow.core_frequency.assign(m.cores, m.dvfs_levels.front());
  const Watts slowest = eng.predict(slow).total_power;
  const Watts anchored = slowest + 0.8 * (full - slowest);
  const Watts floor = slowest / (1.0 - margin) * (1.0 + 1e-9);
  if (anchored >= floor) return anchored;
  ++*widened;
  return floor;
}

/// The governor's exhaustive candidate set, enumerated independently
/// in the same order: every placement × every busy-core level tuple
/// (idle cores at the lowest level).
std::vector<engine::CoScheduleQuery> candidate_set(
    const engine::ModelEngine& eng,
    std::span<const engine::ProcessHandle> procs) {
  const sim::MachineConfig& m = eng.machine();
  const std::vector<Hertz>& levels = m.dvfs_levels;
  std::vector<engine::CoScheduleQuery> out;
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
      engine::CoScheduleQuery q;
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

}  // namespace

Result run_govern(const RunOptions& opt) {
  Result r;
  const Inputs in = make_inputs(opt.seed);
  const std::size_t phases = 16;
  const std::vector<std::vector<core::ProcessProfile>> phase_profiles =
      make_govern_phases(in, opt.seed, phases);

  PooledSetup setup = pooled_set_up(in, opt.threads);
  engine::ModelEngine& eng = *setup.engine;
  // A sample every epoch: about 165 in a 30 s run.
  SetupSampler setups(in, opt.threads, 1);
  setups.sample();
  const engine::ModelEngine::CacheStats cache0 = eng.cache_stats();

  Check& apply_check = r.check("revision_applied");
  Check& decision_check = r.check("decision_feasible_under_cap");
  Check& pred_check = r.check("prediction_valid");
  Check& best_check = r.check("decision_best_in_priced_set");
  Series latency;     // seconds per plan call
  Series apply_time;  // seconds per try_apply
  std::uint64_t candidates = 0;
  std::uint64_t epoch = 0;
  std::uint64_t widened = 0;
  const double budget = opt.seconds * (opt.trace ? 0.4 : 1.0);
  const auto deadline = Clock::now() + std::chrono::duration<double>(budget);
  // The optimality re-check prices the whole candidate set again, so it
  // runs on every eighth epoch.
  const std::uint64_t best_every = 8;
  Tracer tracer;
  QueryTracer qt(eng, tracer);
  Series overhead_plan, overhead_batch;
  double serial = 0.0, batch_wall = 0.0;
  Series per_plan;

  while (Clock::now() < deadline || epoch == 0) {
    const std::size_t pid = epoch % kProcesses;
    core::ProcessProfile next =
        phase_profiles[pid][(epoch / kProcesses) % phases];
    next.revision = epoch + 1;
    ++r.attempted;
    bool ok = true;
    try {
      const auto ta = Clock::now();
      const engine::ApplyResult applied =
          eng.try_apply(engine::Revision::process(
              static_cast<engine::ProcessHandle>(pid), std::move(next)));
      apply_time.add(seconds_since(ta));
      apply_check.expect(applied.applied, applied.reason);
      ok = ok && applied.applied;

      const std::array<engine::ProcessHandle, 3> procs = planned(epoch);
      engine::GovernorOptions go;
      go.margin = 0.05;
      go.power_cap = anchored_cap(eng, procs, go.margin, &widened);
      const engine::Governor governor(eng, go);
      const auto t0 = Clock::now();
      const engine::GovernorDecision d = governor.plan(procs);
      const double plan_s = seconds_since(t0);
      latency.add(plan_s);
      candidates += d.evaluated;
      per_plan.add(static_cast<double>(d.evaluated));

      const Watts planning_cap = go.power_cap * (1.0 - go.margin);
      const bool fits = d.feasible && d.prediction.total_power <= planning_cap;
      decision_check.expect(fits, "decision infeasible or above the planning cap");
      engine::CoScheduleQuery chosen;
      chosen.assignment = d.assignment;
      chosen.core_frequency = d.core_frequency;
      const std::string why = check_prediction(eng, chosen, d.prediction);
      pred_check.expect(why.empty(), why);
      ok = ok && fits && why.empty();

      if (epoch % best_every == 0 || opt.trace) {
        const std::vector<engine::CoScheduleQuery> set = candidate_set(eng, procs);
        const auto tb = Clock::now();
        const std::vector<engine::SystemPrediction> priced =
            eng.predict_batch(set);
        const double batch_s = seconds_since(tb);
        double best = 0.0;
        for (const engine::SystemPrediction& p : priced)
          if (p.total_power <= planning_cap && p.throughput_ips > best)
            best = p.throughput_ips;
        const bool is_best = set.size() == d.evaluated &&
                             d.prediction.throughput_ips >= best;
        best_check.expect(is_best,
                          "a feasible candidate beats the governor's pick");
        ok = ok && is_best;
        if (opt.trace) {
          overhead_plan.add(plan_s);
          overhead_batch.add(batch_s);
          // Serial time of a seeded slice of the same candidates feeds
          // the parallel efficiency and the kernel-level trace.
          std::vector<engine::CoScheduleQuery> slice;
          for (std::size_t i : seeded_sample(opt.seed, 10 + epoch, set.size(),
                                             opt.tiny ? 16 : 128))
            slice.push_back(set[i]);
          const auto ts = Clock::now();
          for (const engine::CoScheduleQuery& q : slice) (void)eng.predict(q);
          serial += seconds_since(ts) * static_cast<double>(set.size()) /
                    static_cast<double>(slice.size());
          batch_wall += batch_s;
          qt.reprice(slice);
        }
      }
    } catch (const std::exception& e) {
      pred_check.expect(false, e.what());
      ok = false;
    }
    if (!ok) ++r.failed;
    ++epoch;
    setups.tick();
  }

  if (!opt.trace) {
    r.metric("setup_s", setups.times().median(), "s", setups.times().size(),
             50.0);
    r.metric("candidates_per_s",
             latency.sum() > 0.0 ? static_cast<double>(candidates) / latency.sum()
                                 : 0.0,
             "1/s", candidates);
    // Segments of at least 100 plans (about 18 s); each tail is a p90.
    r.latency("query_ms", latency, 1e3, "ms", 100);
  } else {
    r.metric("engine.try_apply.us_p50", apply_time.median() * 1e6, "us",
             apply_time.size());
    r.metric("engine.governor.candidates_per_plan", per_plan.mean(), "count",
             per_plan.size());
    r.metric("engine.governor.overhead_ratio",
             overhead_plan.sum() > 0.0
                 ? (overhead_plan.sum() - overhead_batch.sum()) /
                       overhead_plan.sum()
                 : 0.0,
             "ratio", overhead_plan.size());
    r.metric("engine.predict_batch.parallel_eff",
             batch_wall > 0.0
                 ? serial / (static_cast<double>(opt.threads) * batch_wall)
                 : 0.0,
             "ratio", overhead_plan.size());
    const engine::ModelEngine::CacheStats c = eng.cache_stats();
    const double hits = static_cast<double>(c.hits - cache0.hits);
    const double base = hits + static_cast<double>(c.misses - cache0.misses);
    r.metric("engine.artifact.hit_ratio", base > 0.0 ? hits / base : 0.0,
             "ratio", static_cast<std::size_t>(base));
    qt.report(r);
    r.check("trace_reprice_parity")
        .expect(qt.mismatches() == 0,
                "traced kernel re-pricing differs from ModelEngine::predict");
  }
  r.note("epochs", std::to_string(epoch));
  r.note("caps_widened", std::to_string(widened));
  r.note("processes_per_plan", "3");
  return r;
}

}  // namespace perfbench

// Traced query path: a candidate is re-priced serially through the
// public kernels ModelEngine::predict composes, in its order —
// FeatureVector::at_frequency, core::fill_curve (first use per
// revision), EquilibriumSolver::solve (or core::predict_partitioned on
// a pinned die), then core::process_dynamic_power — with one span per
// stage. ModelEngine::predict is then timed, untraced, on the same
// candidate; coverage is Σ stage self time ÷ that predict time.
#include <exception>

#include "bench.hpp"
#include "repro/common/ensure.hpp"
#include "repro/core/combined.hpp"
#include "repro/core/fill_model.hpp"
#include "repro/core/partitioning.hpp"

namespace perfbench {

using namespace repro;

QueryTracer::QueryTracer(const engine::ModelEngine& engine, Tracer& tracer)
    : engine_(engine), tracer_(tracer) {}

engine::SystemPrediction QueryTracer::price(
    const engine::EngineSnapshot& snap, const engine::CoScheduleQuery& query,
    std::uint64_t op, std::int64_t parent) {
  const sim::MachineConfig& m = engine_.machine();
  const engine::EngineOptions& eo = engine_.options();
  const core::EquilibriumSolver solver(m.l2.ways, eo.equilibrium);
  Scope root(tracer_, "query.candidate", parent, op);
  const bool what_if = !query.core_frequency.empty();
  // Global (core, slot) offset of each core's first process, to slice
  // a die's warm-start seeds out of the flat vector.
  std::vector<std::size_t> slot_offset(m.cores + 1, 0);
  for (CoreId c = 0; c < m.cores; ++c)
    slot_offset[c + 1] = slot_offset[c] + query.assignment.per_core[c].size();

  engine::SystemPrediction out;
  out.processes.reserve(query.assignment.process_count());
  const bool has_power = snap.has_power_model();
  if (has_power) {
    out.core_power.assign(m.cores, snap.power_model().idle_core());
    out.total_power = snap.power_model().idle_total();
  }
  for (DieId die = 0; die < m.dies; ++die) {
    std::vector<engine::ProcessHandle> handles;
    std::vector<CoreId> cores;
    std::vector<core::FeatureVector> features;
    std::vector<double> shares;
    std::vector<const math::PiecewiseLinear*> fill;
    std::vector<double> seeds;
    for (CoreId c : m.cores_on_die(die)) {
      const std::size_t q = query.assignment.per_core[c].size();
      for (std::size_t slot = 0; slot < q; ++slot) {
        const auto h =
            static_cast<engine::ProcessHandle>(query.assignment.per_core[c][slot]);
        const core::ProcessProfile& prof = snap.profile(h);
        handles.push_back(h);
        cores.push_back(c);
        const core::FeatureVector& fv = prof.features;
        const Hertz clock = what_if ? query.core_frequency[c] : m.frequency_of(c);
        {
          // A what-if clock is a real rescale; at the machine clock the
          // same call is an exact no-op copy (kept apart as "gather").
          Scope s(tracer_, what_if ? "core.rescale" : "core.gather", root.id(),
                  op);
          features.push_back(fv.fit_frequency > 0.0 ? fv.at_frequency(clock)
                                                    : fv);
        }
        shares.push_back(1.0 / static_cast<double>(q));
        const auto key = std::make_pair(h, prof.revision);
        auto it = memo_.find(key);
        if (it == memo_.end()) {
          Scope s(tracer_, "core.fill_curve", root.id(), op);
          math::PiecewiseLinear g_inv = core::fill_curve(
              fv.histogram, m.l2.ways, eo.equilibrium.mpa_floor);
          math::PiecewiseLinear g(
              std::vector<double>(g_inv.ys().begin(), g_inv.ys().end()),
              std::vector<double>(g_inv.xs().begin(), g_inv.xs().end()));
          it = memo_.emplace(key, std::make_pair(std::move(g_inv), std::move(g)))
                   .first;
          ++fill_builds_;
        }
        fill.push_back(&it->second.first);
        if (!query.warm_start.empty())
          seeds.push_back(query.warm_start[slot_offset[c] + slot]);
      }
    }
    if (handles.empty()) continue;

    std::vector<core::ProcessPrediction> eq;
    if (!query.partition.empty() && !query.partition[die].empty()) {
      Scope s(tracer_, "core.partition", root.id(), op);
      eq = core::predict_partitioned(features, query.partition[die]);
    } else {
      Scope s(tracer_, "core.solve", root.id(), op);
      core::SolveOptions so;
      so.method = eo.method;
      so.cpu_share = shares;
      so.fill = fill;
      so.warm_start = seeds;
      core::SolveStats stats;
      so.stats = &stats;
      ++solves_;
      if (eo.method == core::SolveOptions::Method::kNewton) {
        try {
          eq = solver.solve(features, so);
        } catch (const Error&) {
          ++fallbacks_;
          so.method = core::SolveOptions::Method::kBisection;
          eq = solver.solve(features, so);
        }
      } else {
        eq = solver.solve(features, so);
      }
      iterations_ += static_cast<std::uint64_t>(stats.iterations);
      out.solver_iterations += stats.iterations;
    }

    Scope s(tracer_, "core.power_assembly", root.id(), op);
    std::size_t cursor = 0;
    for (CoreId c : m.cores_on_die(die)) {
      const std::size_t q = query.assignment.per_core[c].size();
      if (q == 0) continue;
      Watts dyn = 0.0;
      double ips = 0.0;
      for (std::size_t slot = 0; slot < q; ++slot, ++cursor) {
        engine::ProcessOperatingPoint point;
        point.handle = handles[cursor];
        point.core = c;
        point.cpu_share = shares[cursor];
        point.prediction = eq[cursor];
        if (has_power)
          point.dynamic_power = core::process_dynamic_power(
              snap.power_model(), snap.profile(point.handle).alone,
              eq[cursor].spi, eq[cursor].mpa);
        dyn += point.dynamic_power;
        ips += 1.0 / eq[cursor].spi;
        out.processes.push_back(std::move(point));
      }
      const double avg_dyn = dyn / static_cast<double>(q);
      if (has_power) {
        out.core_power[c] += avg_dyn;
        out.total_power += avg_dyn;
      }
      out.throughput_ips += ips / static_cast<double>(q);
    }
  }
  return out;
}

void QueryTracer::reprice(
    const std::vector<engine::CoScheduleQuery>& queries) {
  const std::shared_ptr<const engine::EngineSnapshot> snap = engine_.snapshot();
  for (const engine::CoScheduleQuery& q : queries) {
    const std::uint64_t op = ++candidates_;
    const auto t0 = Clock::now();
    const engine::SystemPrediction traced = price(*snap, q, op, -1);
    const auto t1 = Clock::now();
    const engine::SystemPrediction direct = engine_.predict(*snap, q);
    const auto t2 = Clock::now();
    traced_wall_ += seconds_between(t0, t1);
    untraced_wall_ += seconds_between(t1, t2);
    tracer_.record("engine.predict", t1, t2, -1, op);
    if (!bit_identical(traced, direct)) ++mismatches_;
  }
}

void QueryTracer::report(Result& r) const {
  const Series predict = tracer_.durations("engine.predict");
  r.metric("engine.predict.us_p50", predict.median() * 1e6, "us",
           predict.size());
  report_kernels(r);
  // Coverage: Σ kernel-stage self time over the untraced predict time
  // of the same candidates. The root span's own self time is the
  // tracing and glue cost, left out on purpose.
  const double stages = tracer_.self_time("core.");
  r.metric("trace.query.coverage",
           untraced_wall_ > 0.0 ? stages / untraced_wall_ : 0.0, "ratio",
           candidates_);
  r.metric("trace.overhead_ratio",
           untraced_wall_ > 0.0 ? (traced_wall_ - untraced_wall_) / untraced_wall_
                                : 0.0,
           "ratio", candidates_);
  r.note("trace.query.candidates", std::to_string(candidates_));
}

void QueryTracer::report_kernels(Result& r) const {
  const auto us = [&](const char* span) {
    return tracer_.durations(span).median() * 1e6;
  };
  const auto n = [&](const char* span) {
    return tracer_.durations(span).size();
  };
  r.metric("core.solve.us_p50", us("core.solve"), "us", n("core.solve"));
  r.metric("core.solve.iterations_mean",
           solves_ > 0 ? static_cast<double>(iterations_) /
                             static_cast<double>(solves_)
                       : 0.0,
           "count", solves_);
  r.metric("core.solve.fallback_ratio",
           solves_ > 0 ? static_cast<double>(fallbacks_) /
                             static_cast<double>(solves_)
                       : 0.0,
           "ratio", solves_);
  r.metric("core.fill_curve.us_p50", us("core.fill_curve"), "us",
           n("core.fill_curve"));
  r.metric("core.fill_curve.builds", static_cast<double>(fill_builds_),
           "count", fill_builds_);
  r.metric("core.rescale.us_p50", us("core.rescale"), "us", n("core.rescale"));
  r.metric("core.power_assembly.us_p50", us("core.power_assembly"), "us",
           n("core.power_assembly"));
}

}  // namespace perfbench

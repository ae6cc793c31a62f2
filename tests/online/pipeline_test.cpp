#include "repro/online/sharded_pipeline.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "repro/core/profiler.hpp"
#include "repro/engine/model_engine.hpp"
#include "repro/power/oracle.hpp"
#include "repro/sim/machine.hpp"
#include "repro/sim/system.hpp"
#include "repro/workload/generator.hpp"
#include "repro/workload/spec.hpp"
#include "repro/workload/stressmark.hpp"

namespace repro::online {
namespace {

ShardedPipelineOptions fast_options() {
  ShardedPipelineOptions o;
  o.builder.phase.min_phase_windows = 4;
  o.builder.refit_interval = 4;
  o.builder.min_fit_windows = 3;
  return o;
}

/// A synthetic but fully valid profile, registered so a query can be
/// posed without running the stressmark profiler.
core::ProcessProfile handmade_profile(const std::string& name,
                                      std::uint32_t ways) {
  core::ProcessProfile p;
  p.name = name;
  p.features.name = name;
  p.features.histogram = core::ReuseHistogram({0.5, 0.25, 0.1}, 0.15);
  p.features.api = 0.02;
  p.features.alpha = 4.0e-9;
  p.features.beta = 1.0e-9;
  p.power_alone = 30.0;
  p.alone.l2rpi = 0.02;
  p.alone.spi = 2.0e-9;
  for (std::uint32_t s = 1; s <= ways; ++s) {
    const double mpa = 0.5 - 0.05 * s;
    p.mpa_at_ways.push_back(mpa);
    p.spi_at_ways.push_back(p.features.alpha * mpa + p.features.beta);
  }
  return p;
}

/// A single-process sample window for feeding a pipeline directly.
sim::Sample synth_sample(double t, double occ, double mpa, double spi) {
  sim::Sample s;
  s.time = t;
  s.duration = 0.03;
  s.core_rates.resize(2);
  s.occupancy.assign(1, occ);
  s.process_delta.resize(1);
  hpc::Counters& d = s.process_delta[0];
  d.instructions = 1.0e6;
  d.cycles = 2.0e6;
  d.l1_refs = 3.0e5;
  d.l2_refs = 0.02 * d.instructions;
  d.l2_misses = mpa * d.l2_refs;
  d.branches = 1.0e5;
  d.fp_ops = 5.0e4;
  s.process_cpu.assign(1, spi * d.instructions);
  return s;
}

TEST(SingleLanePipeline, ColdStartRegistersOnTheFirstRevision) {
  const sim::MachineConfig machine = sim::two_core_workstation();
  engine::ModelEngine eng(machine);
  ShardedPipeline pipe(eng, fast_options());

  sim::SystemConfig cfg;
  cfg.machine = machine;
  sim::System system(cfg, power::oracle_for_two_core_workstation(),
                     /*seed=*/42);
  const workload::WorkloadSpec spec = workload::find_spec("gzip");
  const ProcessId pid = system.add_process(
      "gzip", 0, spec.mix,
      workload::make_generator("gzip", machine.l2.sets));

  pipe.monitor(pid, /*die=*/0, "gzip");
  EXPECT_EQ(pipe.handle_of(pid), std::nullopt);
  EXPECT_EQ(eng.process_count(), 0u);

  system.run(0.5, pipe.sink());
  pipe.finish();

  const auto handle = pipe.handle_of(pid);
  ASSERT_TRUE(handle.has_value());
  EXPECT_EQ(eng.find("gzip"), handle);
  EXPECT_EQ(eng.process_count(), 1u);

  const PipelineStats stats = pipe.snapshot().stats;
  EXPECT_GE(stats.windows, 10u);
  EXPECT_GE(stats.revisions, 2u);
  EXPECT_EQ(stats.resolves, 0u) << "no query was set";
  EXPECT_EQ(eng.profile(*handle).revision, stats.revisions);
  // First revision registered; each later one swapped the entry.
  EXPECT_EQ(eng.cache_stats().invalidations, stats.revisions - 1);
}

TEST(SingleLanePipeline, RevisionsReSolveTheActiveQueryWarmStarted) {
  const sim::MachineConfig machine = sim::two_core_workstation();
  const power::OracleConfig oracle = power::oracle_for_two_core_workstation();

  engine::EngineOptions eng_options;
  eng_options.threads = 1;
  engine::ModelEngine eng(machine, eng_options);

  const core::StressmarkProfiler profiler(machine, oracle);
  const workload::WorkloadSpec target_spec = workload::find_spec("gzip");
  const workload::WorkloadSpec rival_spec =
      workload::make_stressmark_spec(machine.l2.ways / 2);
  const engine::ProcessHandle target_h =
      eng.register_process(profiler.profile(target_spec));
  const engine::ProcessHandle rival_h =
      eng.register_process(profiler.profile(rival_spec));

  sim::SystemConfig cfg;
  cfg.machine = machine;
  sim::System system(cfg, oracle, /*seed=*/7);
  const ProcessId target_pid = system.add_process(
      "gzip", 0, target_spec.mix,
      workload::make_generator("gzip", machine.l2.sets));
  system.add_process("rival", 1, rival_spec.mix,
                     workload::make_stressmark(machine.l2.ways / 2,
                                               machine.l2.sets));

  ShardedPipeline pipe(eng, fast_options());
  pipe.monitor(target_pid, /*die=*/0, target_h);

  engine::CoScheduleQuery query;
  query.assignment = core::Assignment::empty(machine.cores);
  query.assignment.per_core[0].push_back(target_h);
  query.assignment.per_core[1].push_back(rival_h);
  pipe.set_query(query);

  system.run(0.6, pipe.sink());
  pipe.finish();

  const PipelineSnapshot snap = pipe.snapshot();
  const PipelineStats& stats = snap.stats;
  EXPECT_GE(stats.revisions, 2u);
  EXPECT_EQ(stats.resolves, stats.revisions)
      << "every revision re-prices an active query";
  EXPECT_EQ(eng.cache_stats().invalidations, stats.revisions);
  ASSERT_TRUE(snap.latest.has_value());
  ASSERT_EQ(snap.latest->processes.size(), 2u);
  EXPECT_GT(snap.latest->processes[0].prediction.spi, 0.0);
  EXPECT_GT(snap.latest->throughput_ips, 0.0);

  // The event log is a faithful stream-ordered record, and once a
  // previous equilibrium exists the re-solves are warm-started: a
  // seeded Newton solve needs a handful of iterations per die (0 when
  // the revision barely moved the fixed point) — far below the tens of
  // iterations of a cold bisection.
  const std::deque<PipelineEvent> events = pipe.events();
  ASSERT_EQ(events.size(), stats.revisions);
  std::uint64_t iters = 0;
  std::uint64_t fallbacks = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_TRUE(events[i].is_profile());
    const RevisionEvent& e = events[i].profile();
    if (i > 0) {
      EXPECT_GE(e.time, events[i - 1].profile().time);
    }
    EXPECT_EQ(e.handle, target_h);
    EXPECT_TRUE(e.resolved);
    EXPECT_GE(e.solver_iterations, 0);
    if (i > 0) {
      EXPECT_LE(e.solver_iterations, 8 * static_cast<int>(machine.dies))
          << "re-solve " << i << " was not warm";
    }
    iters += static_cast<std::uint64_t>(e.solver_iterations);
    EXPECT_EQ(e.solver_fallbacks, e.prediction.solver_fallbacks);
    fallbacks += static_cast<std::uint64_t>(e.solver_fallbacks);
  }
  EXPECT_EQ(stats.solver_iterations, iters);
  EXPECT_EQ(stats.solver_fallbacks, fallbacks);
}

TEST(SingleLanePipeline, CleanStreamParityWithAndWithoutHardening) {
  // The acceptance bar for the sanitizer: on a clean stream the
  // hardened pipeline is bit-identical to the pre-hardening path —
  // same revisions, same predictions, down to the last bit.
  const sim::MachineConfig machine = sim::two_core_workstation();
  const std::uint32_t ways = machine.l2.ways;

  // One real simulator run, recorded, replayed into both pipelines.
  sim::SystemConfig cfg;
  cfg.machine = machine;
  sim::System system(cfg, power::oracle_for_two_core_workstation(),
                     /*seed=*/42);
  const workload::WorkloadSpec spec = workload::find_spec("gzip");
  const ProcessId pid = system.add_process(
      "gzip", 0, spec.mix,
      workload::make_generator("gzip", machine.l2.sets));
  const workload::WorkloadSpec rival_spec =
      workload::make_stressmark_spec(ways / 2);
  system.add_process("rival", 1, rival_spec.mix,
                     workload::make_stressmark(ways / 2, machine.l2.sets));
  std::vector<sim::Sample> samples;
  system.run(0.5, [&](const sim::Sample& s) { samples.push_back(s); });
  ASSERT_GE(samples.size(), 10u);

  auto run_pipeline = [&](bool harden) {
    auto eng = std::make_unique<engine::ModelEngine>(machine);
    const engine::ProcessHandle target_h =
        eng->register_process(handmade_profile("gzip", ways));
    const engine::ProcessHandle rival_h =
        eng->register_process(handmade_profile("rival", ways));
    ShardedPipelineOptions options = fast_options();
    options.harden = harden;
    auto pipe = std::make_unique<ShardedPipeline>(*eng, options);
    pipe->monitor(pid, /*die=*/0, target_h);
    engine::CoScheduleQuery query;
    query.assignment = core::Assignment::empty(machine.cores);
    query.assignment.per_core[0].push_back(target_h);
    query.assignment.per_core[1].push_back(rival_h);
    pipe->set_query(query);
    for (const sim::Sample& s : samples) pipe->push(s);
    pipe->finish();
    return std::pair{std::move(eng), std::move(pipe)};
  };

  const auto [eng_on, pipe_on] = run_pipeline(true);
  const auto [eng_off, pipe_off] = run_pipeline(false);

  // The sanitizer let the entire clean stream through untouched...
  const SanitizerStats sani = pipe_on->snapshot().sanitizer;
  EXPECT_EQ(sani.forwarded, samples.size());
  EXPECT_EQ(sani.quarantined, 0u);
  EXPECT_EQ(sani.repaired, 0u);

  // ...so both pipelines computed the exact same thing.
  const auto on = pipe_on->snapshot().stats;
  const auto off = pipe_off->snapshot().stats;
  EXPECT_EQ(on.windows, off.windows);
  EXPECT_EQ(on.revisions, off.revisions);
  EXPECT_EQ(on.resolves, off.resolves);
  EXPECT_EQ(on.solver_iterations, off.solver_iterations);
  const std::deque<PipelineEvent> hist_on = pipe_on->events();
  const std::deque<PipelineEvent> hist_off = pipe_off->events();
  ASSERT_EQ(hist_on.size(), hist_off.size());
  ASSERT_GE(hist_on.size(), 2u);
  for (std::size_t i = 0; i < hist_on.size(); ++i) {
    ASSERT_TRUE(hist_on[i].is_profile());
    ASSERT_TRUE(hist_off[i].is_profile());
    EXPECT_EQ(hist_on[i].seq, hist_off[i].seq);
    const RevisionEvent& a = hist_on[i].profile();
    const RevisionEvent& b = hist_off[i].profile();
    EXPECT_EQ(a.time, b.time) << "event " << i;
    EXPECT_EQ(a.revision, b.revision);
    EXPECT_EQ(a.resolved, b.resolved);
    EXPECT_FALSE(a.degraded);
    EXPECT_EQ(a.solver_iterations, b.solver_iterations);
    EXPECT_EQ(a.quality.windows, b.quality.windows);
    EXPECT_EQ(a.quality.fit_rms, b.quality.fit_rms);
    ASSERT_EQ(a.prediction.processes.size(), b.prediction.processes.size());
    for (std::size_t j = 0; j < a.prediction.processes.size(); ++j) {
      EXPECT_EQ(a.prediction.processes[j].prediction.effective_size,
                b.prediction.processes[j].prediction.effective_size);
      EXPECT_EQ(a.prediction.processes[j].prediction.spi,
                b.prediction.processes[j].prediction.spi);
    }
  }
  const auto latest_on = pipe_on->snapshot().latest;
  const auto latest_off = pipe_off->snapshot().latest;
  ASSERT_TRUE(latest_on.has_value());
  ASSERT_TRUE(latest_off.has_value());
  EXPECT_EQ(latest_on->throughput_ips, latest_off->throughput_ips);
  EXPECT_EQ(eng_on->profile(0).revision, eng_off->profile(0).revision);
}

TEST(SingleLanePipeline, RejectedRevisionsLeaveTheEngineUntouched) {
  const sim::MachineConfig machine = sim::two_core_workstation();
  const std::uint32_t ways = machine.l2.ways;
  engine::ModelEngine eng(machine);
  const engine::ProcessHandle handle =
      eng.register_process(handmade_profile("target", ways));
  const std::uint64_t base_revision = eng.profile(handle).revision;

  ShardedPipelineOptions options = fast_options();
  options.max_fit_rms = 1e-12;  // any real residual fails the gate
  ShardedPipeline pipe(eng, options);
  pipe.monitor(/*pid=*/0, /*die=*/0, handle);

  // Constant MPA with alternating SPI: every fit falls back to the
  // phase-mean line and carries a large relative residual.
  double t = 0.0;
  for (int i = 0; i < 16; ++i) {
    const double spi = (i % 2 == 0) ? 2.0e-9 : 3.0e-9;
    pipe.push(synth_sample(t += 0.03, 4.0, 0.3, spi));
  }
  pipe.finish();

  const PipelineStats stats = pipe.snapshot().stats;
  EXPECT_GE(stats.health.revisions_rejected, 2u);
  EXPECT_EQ(stats.revisions, 0u);
  EXPECT_TRUE(pipe.events().empty()) << "rejected revisions leave no event";
  // The registry entry and its memoized artifacts were never touched.
  EXPECT_EQ(eng.profile(handle).revision, base_revision);
  EXPECT_EQ(eng.cache_stats().invalidations, 0u);
}

TEST(SingleLanePipeline, FailedReSolvesDegradeInsteadOfThrowingOutOfSink) {
  const sim::MachineConfig machine = sim::two_core_workstation();
  const std::uint32_t ways = machine.l2.ways;
  // min_ways = A/2 makes any 2-process equilibrium on the shared die
  // infeasible: every re-solve throws inside the engine. The hardened
  // pipeline must absorb that; the profile updates still land.
  engine::EngineOptions eng_options;
  eng_options.equilibrium.min_ways = static_cast<double>(ways) / 2.0;
  engine::ModelEngine eng(machine, eng_options);
  const engine::ProcessHandle target_h =
      eng.register_process(handmade_profile("target", ways));
  const engine::ProcessHandle rival_h =
      eng.register_process(handmade_profile("rival", ways));

  engine::CoScheduleQuery query;
  query.assignment = core::Assignment::empty(machine.cores);
  query.assignment.per_core[0].push_back(target_h);
  query.assignment.per_core[1].push_back(rival_h);

  auto feed = [&](ShardedPipeline& pipe) {
    double t = 0.0;
    for (int i = 0; i < 8; ++i)
      pipe.push(synth_sample(t += 0.03, 1.0 + 0.5 * i, 0.4 - 0.02 * i,
                             2.0e-9 + 1.0e-11 * i));
    pipe.finish();
  };

  ShardedPipeline pipe(eng, fast_options());
  pipe.monitor(/*pid=*/0, /*die=*/0, target_h);
  pipe.set_query(query);
  EXPECT_NO_THROW(feed(pipe));

  const PipelineStats stats = pipe.snapshot().stats;
  EXPECT_GE(stats.revisions, 1u);
  EXPECT_EQ(stats.resolves, 0u);
  EXPECT_GE(stats.health.degraded_resolves, 1u);
  EXPECT_EQ(stats.health.degraded_resolves, stats.revisions)
      << "every re-solve attempt degraded";
  EXPECT_FALSE(pipe.snapshot().latest.has_value()) << "no last-good exists yet";
  for (const PipelineEvent& event : pipe.events()) {
    ASSERT_TRUE(event.is_profile());
    EXPECT_TRUE(event.profile().degraded);
    EXPECT_FALSE(event.profile().resolved);
  }
  // The revisions themselves were applied — only the pricing degraded.
  EXPECT_EQ(eng.profile(target_h).revision, stats.revisions);

  // The unhardened pipeline propagates the same failure out of push(),
  // which is exactly what ISSUE 3 retires.
  engine::ModelEngine eng2(machine, eng_options);
  const engine::ProcessHandle t2 =
      eng2.register_process(handmade_profile("target", ways));
  const engine::ProcessHandle r2 =
      eng2.register_process(handmade_profile("rival", ways));
  engine::CoScheduleQuery query2;
  query2.assignment = core::Assignment::empty(machine.cores);
  query2.assignment.per_core[0].push_back(t2);
  query2.assignment.per_core[1].push_back(r2);
  ShardedPipelineOptions soft = fast_options();
  soft.harden = false;
  ShardedPipeline unhardened(eng2, soft);
  unhardened.monitor(/*pid=*/0, /*die=*/0, t2);
  unhardened.set_query(query2);
  EXPECT_THROW(feed(unhardened), Error);
}

TEST(SingleLanePipeline, BoundedHistoryEvictsOldestAndKeepsCountersMonotonic) {
  const sim::MachineConfig machine = sim::two_core_workstation();
  const std::uint32_t ways = machine.l2.ways;
  engine::ModelEngine eng(machine);
  const engine::ProcessHandle handle =
      eng.register_process(handmade_profile("target", ways));

  ShardedPipelineOptions options = fast_options();
  options.builder.refit_interval = 2;
  options.history_capacity = 2;
  ShardedPipeline pipe(eng, options);
  pipe.monitor(/*pid=*/0, /*die=*/0, handle);

  double t = 0.0;
  for (int i = 0; i < 12; ++i)
    pipe.push(synth_sample(t += 0.03, 1.0 + 0.5 * i, 0.4 - 0.02 * i,
                           2.0e-9 + 1.0e-11 * i));
  pipe.finish();

  const PipelineStats stats = pipe.snapshot().stats;
  ASSERT_GE(stats.revisions, 4u);
  EXPECT_EQ(pipe.events().size(), 2u);
  EXPECT_EQ(stats.health.history_evicted, stats.revisions - 2);
  // The ring keeps the most recent events; the stats stay monotonic
  // (revision counts are not rolled back by eviction).
  EXPECT_EQ(pipe.events().back().profile().revision, stats.revisions);
  EXPECT_EQ(pipe.events().front().profile().revision, stats.revisions - 1);
  EXPECT_EQ(eng.profile(handle).revision, stats.revisions);
}

TEST(SingleLanePipeline, EventsSinceCursorSurvivesEviction) {
  // A consumer polling with events_since(cursor) must see every event
  // exactly once even when the bounded ring evicts between polls —
  // the seq cursor is monotonic and eviction-proof, unlike indexing
  // into events() by absolute position.
  const sim::MachineConfig machine = sim::two_core_workstation();
  const std::uint32_t ways = machine.l2.ways;
  engine::ModelEngine eng(machine);
  const engine::ProcessHandle handle =
      eng.register_process(handmade_profile("target", ways));

  ShardedPipelineOptions options = fast_options();
  options.builder.refit_interval = 2;
  options.history_capacity = 2;  // evict aggressively
  ShardedPipeline pipe(eng, options);
  pipe.monitor(/*pid=*/0, /*die=*/0, handle);

  std::vector<std::uint64_t> seen;
  EventCursor next_seq = 0;
  double t = 0.0;
  for (int i = 0; i < 16; ++i) {
    pipe.push(synth_sample(t += 0.03, 1.0 + 0.4 * i, 0.4 - 0.015 * i,
                           2.0e-9 + 1.0e-11 * i));
    // Poll only every fourth window so several events (more than the
    // ring holds) can accumulate and the oldest get evicted unseen.
    if (i % 4 == 3) {
      for (const PipelineEvent& e : pipe.events_since(next_seq)) {
        next_seq = e.seq + 1;
        seen.push_back(e.seq);
      }
    }
  }
  pipe.finish();
  for (const PipelineEvent& e : pipe.events_since(next_seq)) {
    next_seq = e.seq + 1;
    seen.push_back(e.seq);
  }

  const PipelineStats stats = pipe.snapshot().stats;
  ASSERT_GE(stats.revisions, 4u);
  EXPECT_GT(stats.health.history_evicted, 0u);

  // Sequence numbers are assigned 0,1,2,... in stream order; the
  // cursor sees a strictly increasing subsequence with no duplicates,
  // and nothing after the last poll is missing.
  ASSERT_FALSE(seen.empty());
  for (std::size_t i = 1; i < seen.size(); ++i)
    EXPECT_GT(seen[i], seen[i - 1]) << "duplicate or reordered event";
  EXPECT_EQ(seen.back(), stats.revisions - 1)
      << "final poll missed the newest event";
  // A cursor past the end yields nothing; a stale cursor pointing at
  // evicted events returns only what the ring still holds.
  EXPECT_TRUE(pipe.events_since(next_seq).empty());
  EXPECT_EQ(pipe.snapshot().next_cursor, next_seq);
  const std::vector<PipelineEvent> tail = pipe.events_since(0);
  EXPECT_EQ(tail.size(), pipe.events().size());
  if (!tail.empty()) {
    EXPECT_EQ(tail.back().seq, stats.revisions - 1);
  }
}

TEST(SingleLanePipeline, RingIngestMatchesInlineIngestBitForBit) {
  // The SPSC ring only moves *where* ingestion runs (a dedicated
  // worker thread), never *what* it computes: replaying one recorded
  // stream through both modes must produce bit-identical event logs.
  const sim::MachineConfig machine = sim::two_core_workstation();
  const std::uint32_t ways = machine.l2.ways;

  std::vector<sim::Sample> samples;
  double t = 0.0;
  for (int i = 0; i < 24; ++i)
    samples.push_back(synth_sample(t += 0.03, 1.0 + 0.3 * i, 0.4 - 0.01 * i,
                                   2.0e-9 + 1.0e-11 * i));

  auto run_mode = [&](bool inline_ingest) {
    auto eng = std::make_unique<engine::ModelEngine>(machine);
    const engine::ProcessHandle handle =
        eng->register_process(handmade_profile("target", ways));
    ShardedPipelineOptions options = fast_options();
    options.inline_ingest = inline_ingest;
    options.ring_capacity = 4;  // force wraparound under load
    auto pipe = std::make_unique<ShardedPipeline>(*eng, options);
    pipe->monitor(/*pid=*/0, /*die=*/0, handle);
    for (const sim::Sample& s : samples) pipe->push(s);
    pipe->finish();
    return std::pair{std::move(eng), std::move(pipe)};
  };

  const auto [eng_inline, pipe_inline] = run_mode(true);
  const auto [eng_ring, pipe_ring] = run_mode(false);

  const auto stats_inline = pipe_inline->snapshot().stats;
  const auto stats_ring = pipe_ring->snapshot().stats;
  EXPECT_EQ(stats_inline.windows, stats_ring.windows);
  EXPECT_EQ(stats_inline.revisions, stats_ring.revisions);
  EXPECT_EQ(stats_ring.health.windows_dropped, 0u)
      << "block policy never drops";
  ASSERT_GE(stats_inline.revisions, 2u);

  const std::deque<PipelineEvent> a = pipe_inline->events();
  const std::deque<PipelineEvent> b = pipe_ring->events();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seq, b[i].seq);
    ASSERT_TRUE(a[i].is_profile());
    ASSERT_TRUE(b[i].is_profile());
    EXPECT_EQ(a[i].profile().time, b[i].profile().time);
    EXPECT_EQ(a[i].profile().revision, b[i].profile().revision);
    EXPECT_EQ(a[i].profile().quality.fit_rms, b[i].profile().quality.fit_rms);
  }
  const engine::ProcessHandle h = *eng_inline->find("target");
  EXPECT_EQ(eng_inline->profile(h).revision, eng_ring->profile(h).revision);
}

TEST(SingleLanePipeline, BlockBackpressureDeliversEveryWindow) {
  const sim::MachineConfig machine = sim::two_core_workstation();
  const std::uint32_t ways = machine.l2.ways;
  engine::ModelEngine eng(machine);
  const engine::ProcessHandle handle =
      eng.register_process(handmade_profile("target", ways));

  ShardedPipelineOptions options = fast_options();
  options.inline_ingest = false;
  options.ring_capacity = 2;  // tiny: the producer must block, not lose
  options.backpressure = Backpressure::kBlock;
  ShardedPipeline pipe(eng, options);
  pipe.monitor(/*pid=*/0, /*die=*/0, handle);

  const std::uint64_t pushed = 64;
  double t = 0.0;
  for (std::uint64_t i = 0; i < pushed; ++i)
    pipe.push(synth_sample(t += 0.03, 1.0 + 0.1 * static_cast<double>(i),
                           0.3, 2.0e-9));
  pipe.finish();

  const PipelineStats stats = pipe.snapshot().stats;
  EXPECT_EQ(stats.windows, pushed);
  EXPECT_EQ(stats.health.windows_dropped, 0u);
}

}  // namespace
}  // namespace repro::online

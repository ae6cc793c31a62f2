// ShardedPipeline (ISSUE 7): the shard-count-independent merged event
// log, coalesced re-solves, quarantine forensics, ring-mode
// multi-producer ingestion racing four producer threads against the
// shard workers (the TSan leg runs this suite), and the fail-stop
// contract for a shard whose worker hits an error.
#include "repro/online/sharded_pipeline.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "repro/common/ensure.hpp"
#include "repro/core/perf_model.hpp"
#include "repro/core/power_model.hpp"
#include "repro/engine/model_engine.hpp"
#include "repro/sim/machine.hpp"
#include "repro/sim/system.hpp"
#include "repro/workload/generator.hpp"

namespace repro::online {
namespace {

constexpr std::size_t kLanes = 4;
constexpr std::size_t kProcsPerLane = 2;
constexpr std::size_t kTotalProcs = kLanes * kProcsPerLane;

/// 8 cores over 4 dies so four producer lanes each own a die.
sim::MachineConfig eight_core_machine() {
  sim::MachineConfig m = sim::four_core_server();
  m.name = "8-core / 4-die sharded-pipeline test";
  m.cores = 8;
  m.dies = 4;
  m.core_to_die = {0, 0, 1, 1, 2, 2, 3, 3};
  m.validate();
  return m;
}

core::ProcessProfile seed_profile(std::size_t i, double ways) {
  core::FeatureVector f;
  f.name = "proc" + std::to_string(i);
  std::vector<double> hist(6);
  double total = 0.25;  // tail
  for (std::size_t b = 0; b < hist.size(); ++b)
    total += (hist[b] = 0.05 + 0.02 * static_cast<double>((i + b) % 4));
  for (double& h : hist) h /= total;
  f.histogram = core::ReuseHistogram(std::move(hist), 0.25 / total);
  f.api = 0.01;
  f.alpha = 4.0e-9;
  f.beta = 2.0e-9;

  core::ProcessProfile p;
  p.name = f.name;
  p.alone.l1rpi = 0.4;
  p.alone.l2rpi = f.api;
  p.alone.brpi = 0.1;
  p.alone.fppi = 0.03;
  p.alone.l2mpr = f.histogram.mpa(ways);
  p.alone.spi = f.spi_at(p.alone.l2mpr);
  p.power_alone = 55.0;
  p.features = std::move(f);
  return p;
}

/// One plausible per-die window slice. Occupancy sweeps a few points
/// and MPA/SPI follow exact linear relations, so every builder refit
/// is a clean Eq. 3 fit that passes the quality gate.
sim::Sample make_window(DieId lane, std::uint64_t seq,
                        std::uint32_t machine_cores) {
  sim::Sample s;
  s.duration = 0.03;
  s.time = 0.03 * static_cast<double>(seq + 1);
  s.seq = seq;
  s.die = lane;
  s.core_rates.resize(machine_cores);
  s.occupancy.assign(kTotalProcs, 0.0);
  s.process_delta.resize(kTotalProcs);
  s.process_cpu.assign(kTotalProcs, 0.0);
  for (std::size_t k = 0; k < kProcsPerLane; ++k) {
    const std::size_t pid = lane * kProcsPerLane + k;
    const double occ = 2.0 + 2.0 * static_cast<double>((seq + pid) % 6);
    const double mpa = 0.25 - 0.015 * occ;
    const double instructions = 3.0e6;
    hpc::Counters& d = s.process_delta[pid];
    d.instructions = instructions;
    d.cycles = 2.0 * instructions;
    d.l1_refs = 0.4 * instructions;
    d.l2_refs = 0.01 * instructions;
    d.l2_misses = mpa * d.l2_refs;
    d.branches = 0.1 * instructions;
    d.fp_ops = 0.03 * instructions;
    s.process_cpu[pid] = instructions * (2.0e-9 + 4.0e-9 * mpa);
    s.occupancy[pid] = occ;
  }
  return s;
}

struct Rig {
  sim::MachineConfig machine = eight_core_machine();
  engine::ModelEngine engine;
  ShardedPipeline pipe;

  Rig(ShardedPipelineOptions options, bool with_query = true)
      : engine(machine,
               core::PowerModel(45.0,
                                {6.0e-9, 2.2e-8, -1.0e-7, 4.5e-9, 5.5e-9},
                                8),
               [] {
                 engine::EngineOptions o;
                 o.threads = 1;
                 return o;
               }()),
        pipe(engine, std::move(options)) {
    engine::CoScheduleQuery q;
    q.assignment = core::Assignment::empty(machine.cores);
    for (std::size_t pid = 0; pid < kTotalProcs; ++pid) {
      const engine::ProcessHandle h = engine.register_process(
          seed_profile(pid, static_cast<double>(machine.l2.ways)));
      const DieId lane = static_cast<DieId>(pid / kProcsPerLane);
      pipe.monitor(static_cast<ProcessId>(pid), lane, h);
      q.assignment.per_core[pid].push_back(h);  // one process per core
    }
    if (with_query) pipe.set_query(std::move(q));
  }
};

ShardedPipelineOptions lane_options(std::size_t shards) {
  ShardedPipelineOptions o;
  o.shards = shards;
  o.producers = kLanes;
  o.builder.refit_interval = 6;
  o.builder.min_fit_windows = 4;
  return o;
}

/// Full-precision textual form of one event — byte-identical logs
/// compare equal strings.
std::string dump_event(const PipelineEvent& e) {
  char buf[512];
  std::string out;
  std::snprintf(buf, sizeof buf, "#%llu t=%.17g ",
                static_cast<unsigned long long>(e.seq), e.time());
  out += buf;
  if (e.is_profile()) {
    const RevisionEvent& r = e.profile();
    std::snprintf(buf, sizeof buf,
                  "rev h=%llu n=%llu w=%zu rms=%.17g mass=%.17g "
                  "resolved=%d degraded=%d iters=%d",
                  static_cast<unsigned long long>(r.handle),
                  static_cast<unsigned long long>(r.revision),
                  r.quality.windows, r.quality.fit_rms,
                  r.quality.histogram_mass, r.resolved, r.degraded,
                  r.solver_iterations);
    out += buf;
    std::snprintf(buf, sizeof buf, " P=%.17g ips=%.17g",
                  r.prediction.total_power, r.prediction.throughput_ips);
    out += buf;
    for (const engine::ProcessOperatingPoint& p : r.prediction.processes) {
      std::snprintf(buf, sizeof buf,
                    " [h=%llu c=%u share=%.17g S=%.17g mpa=%.17g "
                    "spi=%.17g dyn=%.17g]",
                    static_cast<unsigned long long>(p.handle), p.core,
                    p.cpu_share, p.prediction.effective_size,
                    p.prediction.mpa, p.prediction.spi, p.dynamic_power);
      out += buf;
    }
  } else {
    const PowerRevisionEvent& p = e.power();
    std::snprintf(buf, sizeof buf,
                  "pow applied=%d rev=%llu r2=%.17g reason=%s", p.applied,
                  static_cast<unsigned long long>(p.revision), p.r2,
                  p.reason.c_str());
    out += buf;
  }
  return out;
}

std::vector<std::string> dump_log(const ShardedPipeline& pipe) {
  std::vector<std::string> out;
  for (const PipelineEvent& e : pipe.events_since(0))
    out.push_back(dump_event(e));
  return out;
}

void expect_stats_equal(const PipelineStats& a, const PipelineStats& b) {
  EXPECT_EQ(a.windows, b.windows);
  EXPECT_EQ(a.revisions, b.revisions);
  EXPECT_EQ(a.resolves, b.resolves);
  EXPECT_EQ(a.coalesced_resolves, b.coalesced_resolves);
  EXPECT_EQ(a.solver_iterations, b.solver_iterations);
  EXPECT_EQ(a.phase_changes, b.phase_changes);
  EXPECT_EQ(a.health.windows_seen, b.health.windows_seen);
  EXPECT_EQ(a.health.windows_forwarded, b.health.windows_forwarded);
  EXPECT_EQ(a.health.windows_quarantined, b.health.windows_quarantined);
  EXPECT_EQ(a.health.windows_dropped, b.health.windows_dropped);
  EXPECT_EQ(a.health.revisions_rejected, b.health.revisions_rejected);
  EXPECT_EQ(a.health.degraded_resolves, b.health.degraded_resolves);
  EXPECT_EQ(a.frequency_steps, b.frequency_steps);
}

TEST(ShardedPipeline, MergedEventLogIdenticalAcrossShardCounts) {
  // The acceptance bar: the same 4-lane trace through shards = 1, 2,
  // and 4 must yield byte-identical merged event logs and counters —
  // the watermark merge makes the log a pure function of the per-lane
  // window sequences, not of how lanes map onto shards.
  constexpr std::uint64_t kSeqs = 48;
  std::vector<std::vector<std::string>> logs;
  std::vector<PipelineStats> stats;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    Rig rig(lane_options(shards));
    EXPECT_EQ(rig.pipe.shard_count(), shards);
    for (std::uint64_t seq = 0; seq < kSeqs; ++seq)
      for (DieId lane = 0; lane < kLanes; ++lane)
        rig.pipe.push(make_window(lane, seq, rig.machine.cores));
    rig.pipe.finish();
    logs.push_back(dump_log(rig.pipe));
    stats.push_back(rig.pipe.snapshot().stats);
  }
  ASSERT_GT(logs[0].size(), 0u) << "trace produced no revisions";
  ASSERT_GT(stats[0].resolves, 0u) << "trace produced no re-solves";
  EXPECT_EQ(stats[0].windows, kSeqs * kLanes);
  for (std::size_t arm : {1u, 2u}) {
    ASSERT_EQ(logs[arm].size(), logs[0].size());
    for (std::size_t i = 0; i < logs[0].size(); ++i)
      EXPECT_EQ(logs[arm][i], logs[0][i])
          << "event " << i << " differs at shards arm " << arm;
    expect_stats_equal(stats[arm], stats[0]);
  }
}

TEST(ShardedPipeline, CoalescingMergesSameWindowResolvesExactly) {
  // Every lane's builders refit on the same window ordinals, so each
  // refit group carries kTotalProcs revisions. Coalescing must apply
  // them all but re-solve once per group; revisions and the saved
  // re-solves must reconcile exactly with the uncoalesced arm.
  constexpr std::uint64_t kSeqs = 48;
  auto run = [&](bool coalesce) {
    ShardedPipelineOptions o = lane_options(4);
    o.coalesce_resolves = coalesce;
    Rig rig(std::move(o));
    for (std::uint64_t seq = 0; seq < kSeqs; ++seq)
      for (DieId lane = 0; lane < kLanes; ++lane)
        rig.pipe.push(make_window(lane, seq, rig.machine.cores));
    rig.pipe.finish();
    return rig.pipe.snapshot().stats;
  };
  const PipelineStats off = run(false);
  const PipelineStats on = run(true);

  EXPECT_EQ(on.revisions, off.revisions) << "coalescing must not drop "
                                            "revisions";
  EXPECT_GT(on.coalesced_resolves, 0u);
  EXPECT_EQ(off.coalesced_resolves, 0u);
  EXPECT_LT(on.resolves, off.resolves);
  EXPECT_EQ(on.resolves + on.coalesced_resolves, off.resolves)
      << "every saved re-solve must be accounted for";
}

TEST(ShardedPipeline, QuarantineForensicsKeepsLastNWithVerdicts) {
  ShardedPipelineOptions o;  // producers = shards = 1: single lane
  o.quarantine_capacity = 4;
  sim::MachineConfig machine = sim::four_core_server();
  engine::ModelEngine eng(
      machine, core::PowerModel(45.0, {6.0e-9, 2.2e-8, -1.0e-7, 4.5e-9, 5.5e-9}, 4));
  ShardedPipeline pipe(eng, o);
  pipe.monitor(0, 0, std::string("fresh"));

  auto window = [&](std::uint64_t seq) {
    sim::Sample s = make_window(0, seq, machine.cores);
    s.process_delta.resize(1);
    s.process_cpu.resize(1);
    s.occupancy.resize(1);
    return s;
  };
  // Two clean windows, then ten implausible ones (CPU exceeding the
  // window), then one time-travelling window (order violation).
  pipe.push(window(0));
  pipe.push(window(1));
  for (std::uint64_t seq = 2; seq < 12; ++seq) {
    sim::Sample bad = window(seq);
    bad.process_cpu[0] = 10.0 * bad.duration;
    pipe.push(bad);
  }
  sim::Sample late = window(12);
  late.time = 0.01;  // behind every forwarded window
  pipe.push(late);

  const std::vector<QuarantineRecord> bad = pipe.quarantined();
  ASSERT_EQ(bad.size(), 4u) << "ring must hold only the last N";
  // Last four quarantined: seqs 10, 11 (implausible) and 12 (order) —
  // plus seq 9; ordered on (seq, die).
  EXPECT_EQ(bad[0].seq, 9u);
  EXPECT_EQ(bad[3].seq, 12u);
  EXPECT_EQ(bad[0].verdict, WindowVerdict::kQuarantinedImplausible);
  EXPECT_EQ(bad[3].verdict, WindowVerdict::kQuarantinedOrder);
  // The raw window is retained for the dump, not the repaired one.
  EXPECT_EQ(bad[0].window.process_cpu[0], 10.0 * bad[0].window.duration);

  const PipelineStats stats = pipe.snapshot().stats;
  EXPECT_EQ(stats.health.windows_quarantined, 11u);
  EXPECT_EQ(stats.health.windows_forwarded, 2u);
}

TEST(ShardedPipeline, RingModeMultiProducerMatchesInlineIngest) {
  // Four producer threads race the shard workers (TSan covers this in
  // CI); the merged log and counters must equal the single-threaded
  // inline arm exactly.
  constexpr std::uint64_t kSeqs = 48;

  Rig inline_rig(lane_options(4));
  for (std::uint64_t seq = 0; seq < kSeqs; ++seq)
    for (DieId lane = 0; lane < kLanes; ++lane)
      inline_rig.pipe.push(make_window(lane, seq, inline_rig.machine.cores));
  inline_rig.pipe.finish();

  ShardedPipelineOptions ring = lane_options(4);
  ring.inline_ingest = false;
  ring.ring_capacity = 16;
  ring.backpressure = Backpressure::kBlock;
  Rig ring_rig(std::move(ring));
  {
    std::vector<std::thread> producers;
    for (DieId lane = 0; lane < kLanes; ++lane)
      producers.emplace_back([&ring_rig, lane] {
        for (std::uint64_t seq = 0; seq < kSeqs; ++seq)
          ring_rig.pipe.push(
              make_window(lane, seq, ring_rig.machine.cores));
      });
    for (std::thread& t : producers) t.join();
  }
  ring_rig.pipe.finish();

  const std::vector<std::string> a = dump_log(inline_rig.pipe);
  const std::vector<std::string> b = dump_log(ring_rig.pipe);
  ASSERT_GT(a.size(), 0u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i], b[i]) << "event " << i;
  expect_stats_equal(inline_rig.pipe.snapshot().stats,
                     ring_rig.pipe.snapshot().stats);
}

/// make_window with every process's clock tagged: `clock_scale` < 1
/// slows the cores, which stretches CPU time by 1/scale while cache
/// behaviour (and hence MPA, the phase signal) is untouched.
sim::Sample dvfs_window(DieId lane, std::uint64_t seq,
                        const sim::MachineConfig& m, double clock_scale) {
  sim::Sample s = make_window(lane, seq, m.cores);
  s.process_frequency.assign(kTotalProcs, m.frequency * clock_scale);
  s.core_frequency.assign(m.cores, m.frequency * clock_scale);
  for (double& cpu : s.process_cpu) cpu /= clock_scale;
  return s;
}

TEST(ShardedPipeline, FrequencyStepsAreCountedAndNeverBookPhases) {
  // A fleet-wide DVFS step mid-stream: every builder must count one
  // frequency step, book zero phase changes (MPA never moved), keep
  // emitting revisions, and the counters must not depend on how lanes
  // map onto shards.
  constexpr std::uint64_t kSeqs = 32;
  std::vector<PipelineStats> stats;
  for (std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    Rig rig(lane_options(shards));
    for (std::uint64_t seq = 0; seq < kSeqs; ++seq) {
      const double scale = seq < kSeqs / 2 ? 1.0 : 0.5;
      for (DieId lane = 0; lane < kLanes; ++lane)
        rig.pipe.push(dvfs_window(lane, seq, rig.machine, scale));
    }
    rig.pipe.finish();
    stats.push_back(rig.pipe.snapshot().stats);
    EXPECT_EQ(stats.back().frequency_steps, kTotalProcs)
        << shards << " shards";
    EXPECT_EQ(stats.back().phase_changes, 0u) << shards << " shards";
    EXPECT_GT(stats.back().revisions, 0u) << shards << " shards";
  }
  expect_stats_equal(stats[0], stats[1]);
}

TEST(ShardedPipeline, DvfsStepsRaceRingIngestion) {
  // The full closed loop under TSan: a real simulator thread applies
  // scheduled DVFS steps and an on-line set_core_frequency while the
  // ring-mode shard workers ingest concurrently. The sim thread owns
  // the machine config and each Sample is copied into the ring, so
  // the workers never observe the mutation mid-window — this test is
  // the data-race witness for that contract, plus the end-to-end
  // frequency-honesty counters.
  const sim::MachineConfig machine = sim::four_core_server();
  ASSERT_GE(machine.dvfs_levels.size(), 2u);
  engine::ModelEngine eng(machine);
  ShardedPipelineOptions o;
  o.builder.phase.min_phase_windows = 5;
  o.builder.refit_interval = 8;
  o.builder.min_fit_windows = 4;
  o.inline_ingest = false;
  o.ring_capacity = 16;
  o.backpressure = Backpressure::kBlock;
  ShardedPipeline pipe(eng, std::move(o));

  sim::SystemConfig cfg;
  cfg.machine = machine;
  sim::System system(cfg, power::oracle_for_four_core_server(), 91);
  const workload::WorkloadSpec& gz = workload::find_spec("gzip");
  const workload::WorkloadSpec& mc = workload::find_spec("mcf");
  // Separate dies: stepping core 0 cannot shift anyone's cache
  // equilibrium, so any phase change would be spurious by construction.
  system.add_process("gzip", 0, gz.mix,
                     std::make_unique<workload::StackDistanceGenerator>(
                         gz, machine.l2.sets));
  system.add_process("mcf", 2, mc.mix,
                     std::make_unique<workload::StackDistanceGenerator>(
                         mc, machine.l2.sets));
  pipe.monitor(0, 0, std::string("gzip"));
  pipe.monitor(1, 0, std::string("mcf"));

  sim::DvfsSchedule schedule;
  schedule.steps.push_back({0.15, 0, machine.dvfs_levels.front()});
  schedule.steps.push_back({0.30, 0, machine.dvfs_levels.back()});
  system.set_dvfs_schedule(schedule);
  system.run(0.45, pipe.sink());
  // On-line override between runs, racing the workers still draining
  // the ring.
  system.set_core_frequency(0, machine.dvfs_levels.front());
  system.run(0.15, pipe.sink());
  pipe.finish();

  const PipelineStats stats = pipe.snapshot().stats;
  EXPECT_EQ(stats.frequency_steps, 3u);  // two scheduled + one manual
  EXPECT_EQ(stats.phase_changes, 0u);
  EXPECT_GT(stats.revisions, 0u);
  const auto handle = eng.find("gzip");
  ASSERT_TRUE(handle.has_value());
  EXPECT_GT(eng.profile(*handle).features.fit_frequency, 0.0);
}

TEST(ShardedPipeline, WorkerExceptionFailsStopShard) {
  // Lane 0 reports a clock halfway between two DVFS levels — not an
  // operating point — so the unhardened pipeline's first lane-0
  // revision is refused with a fit-frequency error. Inline, push()
  // throws it; in ring mode shard 0 must fail-stop with that same
  // error while a tiny ring keeps the kBlock producer waiting on it.
  constexpr std::uint64_t kSeqs = 32;
  const auto window = [](DieId lane, std::uint64_t seq,
                         const sim::MachineConfig& m) {
    const double off_point =
        0.5 * (m.dvfs_levels[0] + m.dvfs_levels[1]) / m.frequency;
    return dvfs_window(lane, seq, m, lane == 0 ? off_point : 1.0);
  };
  ShardedPipelineOptions o = lane_options(4);
  o.harden = false;

  std::string inline_error;
  {
    Rig rig(o);
    try {
      for (std::uint64_t seq = 0; seq < kSeqs; ++seq)
        for (DieId lane = 0; lane < kLanes; ++lane)
          rig.pipe.push(window(lane, seq, rig.machine));
    } catch (const Error& e) {
      inline_error = e.what();
    }
  }
  ASSERT_NE(inline_error.find("fit-frequency mismatch"), std::string::npos)
      << inline_error;

  o.inline_ingest = false;
  o.ring_capacity = 2;
  o.backpressure = Backpressure::kBlock;
  Rig rig(o);
  for (std::uint64_t seq = 0; seq < kSeqs; ++seq)
    for (DieId lane = 0; lane < kLanes; ++lane)
      rig.pipe.push(window(lane, seq, rig.machine));
  std::string ring_error;
  try {
    rig.pipe.finish();
  } catch (const Error& e) {
    ring_error = e.what();
  }
  EXPECT_EQ(ring_error, inline_error);

  const PipelineStats s = rig.pipe.snapshot().stats;
  EXPECT_EQ(s.health.shards_failed, 1u);
  EXPECT_EQ(s.health.windows_seen + s.health.windows_dropped,
            kSeqs * kLanes);
  EXPECT_GT(s.revisions, 0u) << "the other lanes must keep working";
}

TEST(ShardedPipeline, ShardCountClampsToProducerLanes) {
  sim::MachineConfig machine = sim::four_core_server();
  engine::ModelEngine eng(
      machine, core::PowerModel(45.0, {6.0e-9, 2.2e-8, -1.0e-7, 4.5e-9, 5.5e-9}, 4));
  ShardedPipelineOptions o;
  o.shards = 8;
  o.producers = 2;
  ShardedPipeline pipe(eng, o);
  EXPECT_EQ(pipe.shard_count(), 2u) << "an empty shard can do no work";
}

}  // namespace
}  // namespace repro::online

// Sharded-pipeline ingest-scaling benchmark (ISSUE 7).
//
// Measures aggregate windows/second through ShardedPipeline in ring
// mode on a synthetic 8-core / 4-die machine: four producer threads,
// one per die lane, each streaming plausible per-die window slices
// while the per-shard workers sanitize, outlier-filter, and feed the
// per-process builders. Two arms run the identical stream:
//
//   shards = 1   every lane funnels into one shard worker — the
//                serialized streaming half the monolithic pipeline had;
//   shards = 4   one shard per lane, sanitize/stream/build in parallel,
//                the coordinator's merge + counters the only shared
//                state.
//
// Builders are configured so no revision ever fits (huge
// min_fit_windows, periodic refits off): the engine mutation door
// stays shut and the two arms time pure ingest parallelism. Both arms
// must agree exactly on the coordinator's counters (same windows, all
// forwarded, nothing quarantined or dropped, zero revisions) — a
// synthetic window that trips the sanitizer would make the comparison
// vacuous, so parity is checked, not assumed.
//
// Exit status: nonzero if counter parity fails or — on a machine with
// at least 4 hardware threads — if the 4-shard arm is not >= 2x the
// aggregate throughput of the 1-shard arm (the ISSUE 7 acceptance
// gate). --quick shrinks the stream and skips the perf gate so
// sanitizer CI legs can run the same binary.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "repro/core/perf_model.hpp"
#include "repro/engine/model_engine.hpp"
#include "repro/online/sharded_pipeline.hpp"
#include "repro/sim/machine.hpp"

namespace repro::bench {
namespace {

constexpr std::size_t kLanes = 4;
constexpr std::size_t kProcsPerLane = 8;

core::ProcessProfile synthetic_profile(std::size_t i) {
  core::FeatureVector f;
  f.name = "shardproc" + std::to_string(i);
  std::vector<double> hist(4 + i % 11);
  double tail = 0.2;
  double total = tail;
  for (std::size_t b = 0; b < hist.size(); ++b)
    total += (hist[b] = 0.02 + 0.01 * static_cast<double>((i + b) % 5));
  for (double& h : hist) h /= total;
  tail /= total;
  f.histogram = core::ReuseHistogram(std::move(hist), tail);
  f.api = 0.005 + 0.01 * static_cast<double>(i % 7);
  f.alpha = 1e-9 * (1.0 + static_cast<double>(i % 5));
  f.beta = 4e-10 + 1e-10 * static_cast<double>(i % 3);

  core::ProcessProfile p;
  p.name = f.name;
  p.alone.l1rpi = 0.33;
  p.alone.l2rpi = f.api;
  p.alone.brpi = 0.15;
  p.alone.fppi = 0.05;
  p.alone.l2mpr = f.histogram.mpa(16.0);
  p.alone.spi = f.spi_at(p.alone.l2mpr);
  p.power_alone = 55.0;
  p.features = std::move(f);
  return p;
}

core::PowerModel power_model() {
  return core::PowerModel(45.0, {6.0e-9, 2.2e-8, -1.0e-7, 4.5e-9, 5.5e-9}, 8);
}

/// 8 cores over 4 dies: the four_core_server cache geometry, doubled,
/// so each producer lane owns a die with two cores.
sim::MachineConfig eight_core_machine() {
  sim::MachineConfig m = sim::four_core_server();
  m.name = "8-core / 4-die shard-scaling bench";
  m.cores = 8;
  m.dies = 4;
  m.core_to_die = {0, 0, 1, 1, 2, 2, 3, 3};
  m.core_frequency.clear();
  m.validate();
  return m;
}

/// A per-die window slice that always passes the sanitizer: physical
/// counter ratios, CPU time within the window, occupancy within the
/// ways bound, and MPA/SPI steady enough that the MAD filter never
/// fires. `seq` jitters the magnitudes so consecutive windows are not
/// byte-identical.
sim::Sample make_window(const sim::MachineConfig& machine, DieId lane,
                        std::uint64_t seq, bool sweep = false) {
  constexpr std::size_t kTotal = kLanes * kProcsPerLane;
  sim::Sample s;
  s.duration = 0.03;
  s.time = 0.03 * static_cast<double>(seq + 1);
  s.seq = seq;
  s.die = lane;
  s.core_rates.resize(machine.cores);
  s.occupancy.assign(kTotal, 0.0);
  s.process_delta.resize(kTotal);
  s.process_cpu.assign(kTotal, 0.0);
  for (std::size_t k = 0; k < kProcsPerLane; ++k) {
    const std::size_t pid = lane * kProcsPerLane + k;
    const double scale = 1.0 + 0.05 * static_cast<double>((seq + k) % 7);
    hpc::Counters& d = s.process_delta[pid];
    d.instructions = 3.0e6 * scale;
    d.cycles = 6.0e6 * scale;
    d.l1_refs = 1.2e6 * scale;
    d.l2_refs = 3.0e4 * scale;
    d.l2_misses = 6.0e3 * scale;
    d.branches = 3.0e5 * scale;
    d.fp_ops = 1.0e5 * scale;
    // kProcsPerLane processes time-share the die's two cores.
    s.process_cpu[pid] =
        s.duration * 2.0 / static_cast<double>(kProcsPerLane);
    s.occupancy[pid] =
        static_cast<double>(machine.l2.ways) / static_cast<double>(kProcsPerLane);
    if (sweep) {
      // The journal arms open the mutation door, so the windows must
      // actually fit: occupancy sweeps a few points and MPA/SPI follow
      // exact linear relations (the same recipe the pipeline tests
      // use), making every refit a clean Eq. 3 fit.
      const double occ = 2.0 + 2.0 * static_cast<double>((seq + pid) % 6);
      const double mpa = 0.25 - 0.015 * occ;
      d.l2_misses = mpa * d.l2_refs;
      s.process_cpu[pid] = d.instructions * (2.0e-9 + 4.0e-9 * mpa);
      s.occupancy[pid] = occ;
    }
  }
  return s;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct ArmResult {
  double seconds = 0.0;
  online::PipelineStats stats;
};

/// Stream `windows_per_lane` windows down each of the four lanes from
/// four producer threads and time push-to-drain (finish() included, so
/// both arms pay the same flush).
struct ArmConfig {
  std::size_t shards = 1;
  /// Open the engine-mutation door (occupancy-sweeping windows, real
  /// refits) instead of timing the streaming half alone.
  bool fit = false;
  /// Journal applied revisions here (empty = durability off).
  std::string journal_path;
};

ArmResult run_arm(const ArmConfig& config, std::uint64_t windows_per_lane) {
  const sim::MachineConfig machine = eight_core_machine();
  const core::PowerModel power = power_model();
  engine::EngineOptions eng_options;
  eng_options.threads = 1;  // leave the hardware threads to the shards
  engine::ModelEngine eng(machine, power, eng_options);

  online::ShardedPipelineOptions options;
  options.shards = config.shards;
  options.producers = kLanes;
  if (config.fit) {
    options.builder.refit_interval = 6;
    options.builder.min_fit_windows = 4;
  } else {
    // No revision may ever fit: the arms time the streaming half alone.
    options.builder.refit_interval = 0;
    options.builder.min_fit_windows = std::numeric_limits<std::size_t>::max();
  }
  if (!config.journal_path.empty()) {
    options.durability.journal_path = config.journal_path;
    options.durability.recover = false;  // fresh arm, fresh journal
  }
  options.inline_ingest = false;
  options.ring_capacity = 256;
  options.backpressure = online::Backpressure::kBlock;
  online::ShardedPipeline pipe(eng, options);

  for (std::size_t lane = 0; lane < kLanes; ++lane)
    for (std::size_t k = 0; k < kProcsPerLane; ++k) {
      const std::size_t pid = lane * kProcsPerLane + k;
      const engine::ProcessHandle handle =
          eng.register_process(synthetic_profile(pid));
      pipe.monitor(static_cast<ProcessId>(pid), static_cast<DieId>(lane),
                   handle);
    }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  producers.reserve(kLanes);
  for (std::size_t lane = 0; lane < kLanes; ++lane)
    producers.emplace_back([&, lane] {
      const sim::MachineConfig m = eight_core_machine();
      for (std::uint64_t seq = 0; seq < windows_per_lane; ++seq)
        pipe.push(make_window(m, static_cast<DieId>(lane), seq, config.fit));
    });
  for (std::thread& t : producers) t.join();
  pipe.finish();

  ArmResult r;
  r.seconds = seconds_since(t0);
  r.stats = pipe.snapshot().stats;
  return r;
}

int run(bool quick) {
  const std::uint64_t windows_per_lane = quick ? 500 : 8000;
  const std::uint64_t total = windows_per_lane * kLanes;
  const unsigned hw = std::thread::hardware_concurrency();

  std::printf("ShardedPipeline ingest scaling: %llu windows "
              "(%zu lanes x %llu, %zu processes/lane, %u hw threads)\n",
              static_cast<unsigned long long>(total), kLanes,
              static_cast<unsigned long long>(windows_per_lane),
              kProcsPerLane, hw);

  const ArmResult one = run_arm(
      {.shards = 1, .fit = false, .journal_path = {}}, windows_per_lane);
  const ArmResult four = run_arm(
      {.shards = 4, .fit = false, .journal_path = {}}, windows_per_lane);

  const double one_wps = static_cast<double>(total) / one.seconds;
  const double four_wps = static_cast<double>(total) / four.seconds;
  const double speedup = one.seconds / four.seconds;
  std::printf("  shards=1 : %9.0f windows/s  (%.3f s)\n", one_wps,
              one.seconds);
  std::printf("  shards=4 : %9.0f windows/s  (%.3f s, %.2fx vs shards=1)\n",
              four_wps, four.seconds, speedup);

  // The comparison is only meaningful if both arms did identical work:
  // every window ingested and forwarded, nothing quarantined, dropped,
  // or revised in either arm.
  int failures = 0;
  for (const ArmResult* arm : {&one, &four}) {
    const online::PipelineStats& s = arm->stats;
    const std::size_t shards = arm == &one ? 1 : 4;
    if (s.windows != total || s.health.windows_forwarded != total ||
        s.health.windows_quarantined != 0 || s.health.windows_dropped != 0 ||
        s.revisions != 0) {
      std::fprintf(stderr,
                   "FAIL: shards=%zu saw %llu windows, %llu forwarded, "
                   "%llu quarantined, %llu dropped, %llu revisions "
                   "(want %llu/%llu/0/0/0)\n",
                   shards, static_cast<unsigned long long>(s.windows),
                   static_cast<unsigned long long>(s.health.windows_forwarded),
                   static_cast<unsigned long long>(
                       s.health.windows_quarantined),
                   static_cast<unsigned long long>(s.health.windows_dropped),
                   static_cast<unsigned long long>(s.revisions),
                   static_cast<unsigned long long>(total),
                   static_cast<unsigned long long>(total));
      ++failures;
    }
  }
  if (failures != 0) return 1;
  std::printf("  parity   : both arms forwarded all %llu windows\n",
              static_cast<unsigned long long>(total));

  // --- Journal overhead arms (ISSUE 8): the mutation door open, real
  // refits journaled at the default fsync policy, vs the identical
  // stream with durability off. ---
  const std::string journal_path = "bench_shard_scaling.journal.tmp";
  std::remove(journal_path.c_str());
  const ArmResult plain = run_arm(
      {.shards = 4, .fit = true, .journal_path = {}}, windows_per_lane);
  const ArmResult journaled = run_arm(
      {.shards = 4, .fit = true, .journal_path = journal_path},
      windows_per_lane);
  std::remove(journal_path.c_str());

  const double plain_wps = static_cast<double>(total) / plain.seconds;
  const double journal_wps = static_cast<double>(total) / journaled.seconds;
  const double overhead = journal_wps / plain_wps;
  std::printf("  fit      : %9.0f windows/s  (%.3f s, %llu revisions)\n",
              plain_wps, plain.seconds,
              static_cast<unsigned long long>(plain.stats.revisions));
  std::printf("  fit+jrnl : %9.0f windows/s  (%.3f s, %llu events "
              "journaled, %.0f%% of no-journal)\n",
              journal_wps, journaled.seconds,
              static_cast<unsigned long long>(
                  journaled.stats.journaled_events),
              100.0 * overhead);
  if (journaled.stats.journaled_events == 0 ||
      journaled.stats.health.journal_write_failures != 0) {
    std::fprintf(stderr,
                 "FAIL: journal arm journaled %llu events with %llu write "
                 "failures — the overhead comparison is vacuous\n",
                 static_cast<unsigned long long>(
                     journaled.stats.journaled_events),
                 static_cast<unsigned long long>(
                     journaled.stats.health.journal_write_failures));
    return 1;
  }
  if (plain.stats.revisions != journaled.stats.revisions ||
      plain.stats.windows != journaled.stats.windows) {
    std::fprintf(stderr,
                 "FAIL: journal arm diverged (%llu vs %llu revisions, "
                 "%llu vs %llu windows) — durability must not change "
                 "what the pipeline computes\n",
                 static_cast<unsigned long long>(plain.stats.revisions),
                 static_cast<unsigned long long>(journaled.stats.revisions),
                 static_cast<unsigned long long>(plain.stats.windows),
                 static_cast<unsigned long long>(journaled.stats.windows));
    return 1;
  }

  if (quick) {
    std::printf("  (perf gates skipped: --quick)\n");
    return 0;
  }
  if (hw < 4) {
    std::printf("  (perf gates skipped: fewer than 4 hardware threads)\n");
    return 0;
  }
  // ISSUE 7 acceptance: >= 2x aggregate ingest throughput at 4 shards.
  if (speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: 4-shard speedup %.2fx < 2x with %u hw threads\n",
                 speedup, hw);
    return 1;
  }
  // ISSUE 8 acceptance: journaling at the default fsync policy costs
  // at most 10% of ingest throughput.
  if (overhead < 0.9) {
    std::fprintf(stderr,
                 "FAIL: journal arm at %.0f%% of no-journal throughput "
                 "(floor 90%%)\n",
                 100.0 * overhead);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace repro::bench

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  return repro::bench::run(quick);
}

// ModelEngine batch-throughput benchmark.
//
// Measures predictions/second over a large randomized co-schedule sweep
// three ways: the hand-wired single-threaded composition the engine
// replaced (fill curves rebuilt per candidate, as the old callers did),
// the engine with threads = 1 (memoization only), and the engine with
// the full thread pool (memoization + parallel fan-out). Also verifies
// the three produce bit-identical predictions and reports the
// fill-curve cache hit rate.
//
// A fourth, mixed arm runs predict_batch while a writer thread applies
// a continuous stream of try_apply revisions to a process no query
// references. A batch takes the engine's builder lock once, to copy the
// snapshot pointer, and then prices against that epoch without it, so
// the busy run must stay within 10% of the revision-free run and
// produce bit-identical predictions. The same workload through a bench-local
// reader/writer lock — the composition the snapshot API retired —
// shows what the old locked path cost under churn.
//
// Exit status: nonzero if parity fails, if the pooled engine is not
// >= 3x faster than the single-threaded engine, or if the mixed arm
// degrades more than 10% under churn — the perf gates apply on a
// machine with at least 4 hardware threads (on smaller machines the
// ratios are reported but not enforced). --quick shrinks the sweep and
// skips the perf gates so sanitizer CI legs can run the same binary.
//
// Before the arms run, a host-parallelism probe times the same fixed
// block of pure arithmetic on 1 thread and on one thread per pool
// worker. Their ratio is how many threads' worth of independent work
// the host actually ran at once: a pooled speedup cannot exceed it, so
// a failed >= 3x gate next to a low host parallelism points at host
// contention (time-sliced vCPUs), not at the pool.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "repro/common/ensure.hpp"
#include "repro/common/thread_pool.hpp"
#include "repro/core/perf_model.hpp"
#include "repro/engine/model_engine.hpp"
#include "repro/sim/machine.hpp"

namespace repro::bench {
namespace {

core::ProcessProfile synthetic_profile(std::size_t i) {
  std::mt19937 rng(0x5EED0 + static_cast<std::uint32_t>(i));
  std::uniform_real_distribution<double> frac(0.02, 0.09);
  core::FeatureVector f;
  f.name = "synthetic" + std::to_string(i);
  std::vector<double> hist(4 + i % 11);
  double tail = frac(rng) * 4.0;
  double total = tail;
  for (double& h : hist) total += (h = frac(rng));
  for (double& h : hist) h /= total;  // buckets + tail must sum to 1
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
  return core::PowerModel(45.0, {6.0e-9, 2.2e-8, -1.0e-7, 4.5e-9, 5.5e-9}, 4);
}

/// The pre-engine composition: per-die weighted solve with fill curves
/// rebuilt from scratch for every candidate, accumulated in the
/// engine's order and solved with the engine's method and its
/// Newton→bisection fallback, so results stay comparable bit for bit.
engine::SystemPrediction direct_prediction(
    const sim::MachineConfig& machine, const core::PowerModel& power,
    const std::vector<core::ProcessProfile>& profiles,
    const engine::CoScheduleQuery& query, core::SolveOptions::Method method) {
  const core::EquilibriumSolver solver(machine.l2.ways);
  engine::SystemPrediction out;
  out.core_power.assign(machine.cores, power.idle_core());
  out.total_power = power.idle_total();
  for (DieId die = 0; die < machine.dies; ++die) {
    std::vector<std::size_t> slots;
    std::vector<core::FeatureVector> features;
    std::vector<double> shares;
    for (CoreId c : machine.cores_on_die(die)) {
      const std::size_t q = query.assignment.per_core[c].size();
      for (std::size_t idx : query.assignment.per_core[c]) {
        slots.push_back(idx);
        features.push_back(profiles[idx].features);
        shares.push_back(1.0 / static_cast<double>(q));
      }
    }
    if (slots.empty()) continue;
    core::SolveOptions options;
    options.method = method;
    options.cpu_share = shares;
    std::vector<core::ProcessPrediction> eq;
    try {
      eq = solver.solve(features, options);
    } catch (const Error&) {
      if (method != core::SolveOptions::Method::kNewton) throw;
      options.method = core::SolveOptions::Method::kBisection;
      eq = solver.solve(features, options);
    }
    std::size_t cursor = 0;
    for (CoreId c : machine.cores_on_die(die)) {
      const std::size_t q = query.assignment.per_core[c].size();
      if (q == 0) continue;
      Watts dyn = 0.0;
      double ips = 0.0;
      for (std::size_t slot = 0; slot < q; ++slot, ++cursor) {
        engine::ProcessOperatingPoint point;
        point.handle = static_cast<engine::ProcessHandle>(slots[cursor]);
        point.core = c;
        point.cpu_share = shares[cursor];
        point.prediction = eq[cursor];
        point.dynamic_power = core::process_dynamic_power(
            power, profiles[point.handle].alone, eq[cursor].spi,
            eq[cursor].mpa);
        dyn += point.dynamic_power;
        ips += 1.0 / eq[cursor].spi;
        out.processes.push_back(point);
      }
      const double avg_dyn = dyn / static_cast<double>(q);
      out.core_power[c] += avg_dyn;
      out.total_power += avg_dyn;
      out.throughput_ips += ips / static_cast<double>(q);
    }
  }
  return out;
}

bool identical(const engine::SystemPrediction& a,
               const engine::SystemPrediction& b) {
  if (a.processes.size() != b.processes.size()) return false;
  for (std::size_t i = 0; i < a.processes.size(); ++i) {
    const auto& pa = a.processes[i];
    const auto& pb = b.processes[i];
    if (pa.handle != pb.handle || pa.core != pb.core ||
        pa.cpu_share != pb.cpu_share ||
        pa.prediction.effective_size != pb.prediction.effective_size ||
        pa.prediction.mpa != pb.prediction.mpa ||
        pa.prediction.spi != pb.prediction.spi ||
        pa.dynamic_power != pb.dynamic_power)
      return false;
  }
  if (a.core_power != b.core_power) return false;
  return a.total_power == b.total_power &&
         a.throughput_ips == b.throughput_ips;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// A fixed block of dependent floating-point arithmetic: no memory
/// traffic, no synchronization, so n copies scale perfectly on n
/// dedicated cores.
double arithmetic_block() {
  double x = 1.0;
  for (int i = 0; i < 20'000'000; ++i) x = x * 1.0000001 + 1e-9;
  return x;
}

/// n·t(1)/t(n): the number of threads' worth of arithmetic_block()
/// the host completes at once when n threads each run one copy.
double host_parallelism(std::size_t n) {
  double checksum = 0.0;  // used below, so no block is optimized away
  const auto timed = [&](std::size_t threads) {
    std::vector<double> results(threads);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> team;
    for (std::size_t t = 0; t < threads; ++t)
      team.emplace_back([&results, t] { results[t] = arithmetic_block(); });
    for (std::thread& t : team) t.join();
    const double s = seconds_since(t0);
    for (double r : results) checksum += r;
    return s;
  };
  const double one = timed(1);
  const double ratio = static_cast<double>(n) * one / timed(n);
  return checksum > 0.0 ? ratio : 0.0;
}

int run(bool quick) {
  const std::size_t pool_threads = common::ThreadPool::default_threads();
  const double parallelism = host_parallelism(pool_threads);

  const sim::MachineConfig machine = sim::four_core_server();
  const core::PowerModel power = power_model();
  constexpr std::size_t kProcesses = 8;
  const std::size_t kQueries = quick ? 64 : 2000;

  std::vector<core::ProcessProfile> profiles;
  for (std::size_t i = 0; i < kProcesses; ++i)
    profiles.push_back(synthetic_profile(i));

  // Randomized sweep: each process lands on a random core or sits out.
  std::mt19937 rng(0xA11CE);
  std::uniform_int_distribution<std::uint32_t> place(0, machine.cores);
  std::vector<engine::CoScheduleQuery> queries;
  for (std::size_t q = 0; q < kQueries; ++q) {
    engine::CoScheduleQuery query;
    query.assignment = core::Assignment::empty(machine.cores);
    bool any = false;
    for (std::size_t p = 0; p < kProcesses; ++p) {
      const std::uint32_t c = place(rng);
      if (c == machine.cores) continue;
      query.assignment.per_core[c].push_back(p);
      any = true;
    }
    if (!any) query.assignment.per_core[0].push_back(0);
    queries.push_back(std::move(query));
  }

  engine::EngineOptions serial_options;
  serial_options.threads = 1;

  // Baseline: the hand-wired composition, serial, no memoization.
  auto t0 = std::chrono::steady_clock::now();
  std::vector<engine::SystemPrediction> direct;
  direct.reserve(kQueries);
  for (const auto& q : queries)
    direct.push_back(
        direct_prediction(machine, power, profiles, q, serial_options.method));
  const double direct_s = seconds_since(t0);

  // Engine, single-threaded: memoized artifacts, no pool.
  engine::ModelEngine serial(machine, power, serial_options);
  for (const auto& p : profiles) serial.register_process(p);
  t0 = std::chrono::steady_clock::now();
  const auto serial_pred = serial.predict_batch(queries);
  const double serial_s = seconds_since(t0);

  // Engine, pooled: one worker per hardware thread.
  engine::ModelEngine pooled(machine, power);
  for (const auto& p : profiles) pooled.register_process(p);
  // Warm the artifact cache outside the timed region, mirroring the
  // steady-state sweep the facade exists for.
  (void)pooled.predict(queries[0]);
  t0 = std::chrono::steady_clock::now();
  const auto pooled_pred = pooled.predict_batch(queries);
  const double pooled_s = seconds_since(t0);

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < kQueries; ++i) {
    if (!identical(direct[i], serial_pred[i])) ++mismatches;
    if (!identical(serial_pred[i], pooled_pred[i])) ++mismatches;
  }

  // --- Mixed arm: predict_batch under concurrent revisions. ---
  // The writer hammers a process no query references, so the readers'
  // entries are untouched across epochs: the busy sweep must match the
  // quiet sweep bit for bit, and — because a batch takes the builder
  // lock only to copy the snapshot pointer — run at essentially the
  // same speed.
  engine::ModelEngine mixed(machine, power, serial_options);
  for (const auto& p : profiles) mixed.register_process(p);
  const engine::ProcessHandle victim =
      mixed.register_process(synthetic_profile(kProcesses));
  (void)mixed.predict(queries[0]);  // warm the shared artifacts

  t0 = std::chrono::steady_clock::now();
  const auto quiet_pred = mixed.predict_batch(queries);
  const double quiet_s = seconds_since(t0);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> epochs{0};
  std::thread writer([&] {
    const core::ProcessProfile fresh = synthetic_profile(kProcesses);
    while (!stop.load(std::memory_order_relaxed)) {
      if (mixed.try_apply(engine::Revision::process(victim, fresh)))
        epochs.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();  // let readers run on small hosts
    }
  });
  t0 = std::chrono::steady_clock::now();
  const auto busy_pred = mixed.predict_batch(queries);
  const double busy_s = seconds_since(t0);
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  std::size_t mixed_mismatches = 0;
  for (std::size_t i = 0; i < kQueries; ++i)
    if (!identical(quiet_pred[i], busy_pred[i])) ++mixed_mismatches;

  // --- The retired locked composition, emulated: every predict takes
  // a reader lock that each revision takes exclusively, so churn
  // stalls the read path instead of riding a snapshot. ---
  std::shared_mutex legacy;
  engine::ModelEngine locked_eng(machine, power, serial_options);
  for (const auto& p : profiles) locked_eng.register_process(p);
  const engine::ProcessHandle locked_victim =
      locked_eng.register_process(synthetic_profile(kProcesses));
  (void)locked_eng.predict(queries[0]);
  std::atomic<bool> locked_stop{false};
  std::thread locked_writer([&] {
    const core::ProcessProfile fresh = synthetic_profile(kProcesses);
    while (!locked_stop.load(std::memory_order_relaxed)) {
      {
        std::unique_lock<std::shared_mutex> lock(legacy);
        (void)locked_eng.try_apply(
            engine::Revision::process(locked_victim, fresh));
      }
      std::this_thread::yield();
    }
  });
  t0 = std::chrono::steady_clock::now();
  for (const auto& q : queries) {
    std::shared_lock<std::shared_mutex> lock(legacy);
    (void)locked_eng.predict(q);
  }
  const double locked_s = seconds_since(t0);
  locked_stop.store(true, std::memory_order_relaxed);
  locked_writer.join();

  const unsigned hw = std::thread::hardware_concurrency();
  const auto stats = pooled.cache_stats();
  std::printf("ModelEngine throughput over %zu randomized co-schedules "
              "(%zu processes, %u cores, %u hw threads):\n",
              kQueries, kProcesses, machine.cores, hw);
  std::printf("  host parallelism   : %8.2fx of %zu threads (pure "
              "arithmetic; caps the pooled speedup)\n",
              parallelism, pool_threads);
  std::printf("  direct composition : %8.0f predictions/s  (%.3f s)\n",
              kQueries / direct_s, direct_s);
  std::printf("  engine, threads=1  : %8.0f predictions/s  (%.3f s, "
              "%.2fx vs direct)\n",
              kQueries / serial_s, serial_s, direct_s / serial_s);
  std::printf("  engine, pooled     : %8.0f predictions/s  (%.3f s, "
              "%.2fx vs threads=1)\n",
              kQueries / pooled_s, pooled_s, serial_s / pooled_s);
  std::printf("  fill-curve cache   : %llu hits / %llu builds "
              "(hit rate %.4f)\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              stats.hit_rate());
  std::printf("  parity             : %s\n",
              mismatches == 0 ? "bit-identical across all three paths"
                              : "MISMATCH");
  std::printf("mixed predict+revise arm (%llu epochs published during the "
              "busy sweep):\n",
              static_cast<unsigned long long>(
                  epochs.load(std::memory_order_relaxed)));
  std::printf("  snapshot, quiet    : %8.0f predictions/s  (%.3f s)\n",
              kQueries / quiet_s, quiet_s);
  std::printf("  snapshot, busy     : %8.0f predictions/s  (%.3f s, "
              "%.2fx of quiet)\n",
              kQueries / busy_s, busy_s, quiet_s / busy_s);
  std::printf("  locked path, busy  : %8.0f predictions/s  (%.3f s, "
              "%.2fx of snapshot busy)\n",
              kQueries / locked_s, locked_s, busy_s / locked_s);
  std::printf("  mixed parity       : %s\n",
              mixed_mismatches == 0
                  ? "busy sweep bit-identical to quiet sweep"
                  : "MISMATCH");

  if (mismatches != 0) {
    std::fprintf(stderr, "FAIL: %zu predictions differ across paths\n",
                 mismatches);
    return 1;
  }
  if (mixed_mismatches != 0) {
    std::fprintf(stderr,
                 "FAIL: %zu predictions changed under concurrent "
                 "revisions of an unrelated process\n",
                 mixed_mismatches);
    return 1;
  }
  if (quick) {
    std::printf("  (perf gates skipped: --quick)\n");
    return 0;
  }
  const double speedup = serial_s / pooled_s;
  if (hw >= 4 && speedup < 3.0) {
    std::fprintf(stderr,
                 "FAIL: pooled speedup %.2fx < 3x with %u hw threads\n",
                 speedup, hw);
    return 1;
  }
  // A batch holds the builder lock only for one pointer copy, so
  // revision churn may cost at most scheduler noise: 10%.
  if (hw >= 4 && busy_s > 1.1 * quiet_s) {
    std::fprintf(stderr,
                 "FAIL: busy sweep %.3fs is more than 10%% slower than "
                 "quiet sweep %.3fs with %u hw threads\n",
                 busy_s, quiet_s, hw);
    return 1;
  }
  if (hw < 4)
    std::printf("  (speedup gates skipped: fewer than 4 hardware threads)\n");
  return 0;
}

}  // namespace
}  // namespace repro::bench

int main(int argc, char** argv) {
  const bool quick =
      argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  return repro::bench::run(quick);
}

// Tests for the ModelEngine facade: registry semantics, memoization,
// bit-exact parity with the direct solver composition, and determinism
// of batched prediction under the thread pool.
#include "repro/engine/model_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <random>
#include <stdexcept>
#include <thread>

#include "repro/core/partitioning.hpp"
#include "repro/engine/checkpoint.hpp"
#include "repro/sim/machine.hpp"

namespace repro::engine {
namespace {

core::FeatureVector fv(std::string name, core::ReuseHistogram hist,
                       double api, double alpha, double beta) {
  core::FeatureVector f;
  f.name = std::move(name);
  f.histogram = std::move(hist);
  f.api = api;
  f.alpha = alpha;
  f.beta = beta;
  return f;
}

core::ProcessProfile profile_of(core::FeatureVector f) {
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

std::vector<core::ProcessProfile> suite() {
  return {
      profile_of(fv("worker",
                    core::ReuseHistogram(std::vector<double>(12, 0.07), 0.16),
                    0.04, 4e-9, 6e-10)),
      profile_of(fv("sprinter",
                    core::ReuseHistogram({0.6, 0.25, 0.1}, 0.05), 0.01,
                    8e-10, 4e-10)),
      profile_of(fv("streamer",
                    core::ReuseHistogram({0.1, 0.1, 0.1}, 0.7), 0.08,
                    2e-9, 5e-10)),
      profile_of(fv("midfield",
                    core::ReuseHistogram(std::vector<double>(6, 0.12), 0.28),
                    0.02, 3e-9, 5e-10)),
      profile_of(fv("hog",
                    core::ReuseHistogram(std::vector<double>(14, 0.065), 0.09),
                    0.06, 5e-9, 7e-10)),
  };
}

core::PowerModel model() {
  return core::PowerModel(45.0, {6.0e-9, 2.2e-8, -1.0e-7, 4.5e-9, 5.5e-9}, 4);
}

std::vector<CoScheduleQuery> random_queries(std::size_t count,
                                            std::size_t processes,
                                            std::uint32_t cores,
                                            std::uint32_t seed) {
  // Each process lands on a random core or stays off the machine;
  // multiple processes on one core exercise the time-sharing path.
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::uint32_t> place(0, cores);
  std::vector<CoScheduleQuery> queries;
  for (std::size_t q = 0; q < count; ++q) {
    CoScheduleQuery query;
    query.assignment = core::Assignment::empty(cores);
    bool any = false;
    for (std::size_t p = 0; p < processes; ++p) {
      const std::uint32_t c = place(rng);
      if (c == cores) continue;  // not scheduled
      query.assignment.per_core[c].push_back(p);
      any = true;
    }
    if (!any) query.assignment.per_core[0].push_back(0);
    queries.push_back(std::move(query));
  }
  return queries;
}

/// The hand-wired composition ModelEngine replaces: per-die
/// share-weighted equilibrium + §5 power assembly, in the engine's
/// exact accumulation order (floating-point addition is not
/// associative, so parity at the bit level requires the same order),
/// solved with the engine's method and its Newton→bisection fallback.
/// Each process is an at_frequency copy at its core's clock (legacy
/// profiles as they are), and a die the query partitions goes through
/// predict_partitioned.
SystemPrediction direct_prediction(
    const sim::MachineConfig& machine, const core::PowerModel* power,
    const std::vector<core::ProcessProfile>& profiles,
    const CoScheduleQuery& query, core::SolveOptions::Method method) {
  const core::EquilibriumSolver solver(machine.l2.ways);
  SystemPrediction out;
  if (power != nullptr) {
    out.core_power.assign(machine.cores, power->idle_core());
    out.total_power = power->idle_total();
  }
  for (DieId die = 0; die < machine.dies; ++die) {
    std::vector<std::size_t> slots;
    std::vector<core::FeatureVector> features;
    std::vector<double> shares;
    for (CoreId c : machine.cores_on_die(die)) {
      const std::size_t q = query.assignment.per_core[c].size();
      const Hertz clock = query.core_frequency.empty()
                              ? machine.frequency_of(c)
                              : query.core_frequency[c];
      for (std::size_t idx : query.assignment.per_core[c]) {
        slots.push_back(idx);
        const core::FeatureVector& f = profiles[idx].features;
        features.push_back(f.fit_frequency > 0.0 ? f.at_frequency(clock) : f);
        shares.push_back(1.0 / static_cast<double>(q));
      }
    }
    if (slots.empty()) continue;
    core::SolveOptions options;
    options.method = method;
    options.cpu_share = shares;
    std::vector<core::ProcessPrediction> eq;
    if (!query.partition.empty() && !query.partition[die].empty()) {
      eq = core::predict_partitioned(features, query.partition[die]);
    } else {
      try {
        eq = solver.solve(features, options);
      } catch (const Error&) {
        if (method != core::SolveOptions::Method::kNewton) throw;
        options.method = core::SolveOptions::Method::kBisection;
        eq = solver.solve(features, options);
      }
    }

    std::size_t cursor = 0;
    for (CoreId c : machine.cores_on_die(die)) {
      const std::size_t q = query.assignment.per_core[c].size();
      if (q == 0) continue;
      Watts dyn = 0.0;
      double ips = 0.0;
      for (std::size_t slot = 0; slot < q; ++slot, ++cursor) {
        ProcessOperatingPoint point;
        point.handle = static_cast<ProcessHandle>(slots[cursor]);
        point.core = c;
        point.cpu_share = shares[cursor];
        point.prediction = eq[cursor];
        if (power != nullptr)
          point.dynamic_power = core::process_dynamic_power(
              *power, profiles[point.handle].alone, eq[cursor].spi,
              eq[cursor].mpa);
        dyn += point.dynamic_power;
        ips += 1.0 / eq[cursor].spi;
        out.processes.push_back(point);
      }
      const double avg_dyn = dyn / static_cast<double>(q);
      if (power != nullptr) {
        out.core_power[c] += avg_dyn;
        out.total_power += avg_dyn;
      }
      out.throughput_ips += ips / static_cast<double>(q);
    }
  }
  return out;
}

void expect_bitwise_equal(const SystemPrediction& a,
                          const SystemPrediction& b) {
  ASSERT_EQ(a.processes.size(), b.processes.size());
  for (std::size_t i = 0; i < a.processes.size(); ++i) {
    EXPECT_EQ(a.processes[i].handle, b.processes[i].handle);
    EXPECT_EQ(a.processes[i].core, b.processes[i].core);
    EXPECT_EQ(a.processes[i].cpu_share, b.processes[i].cpu_share);
    EXPECT_EQ(a.processes[i].prediction.effective_size,
              b.processes[i].prediction.effective_size);
    EXPECT_EQ(a.processes[i].prediction.mpa, b.processes[i].prediction.mpa);
    EXPECT_EQ(a.processes[i].prediction.spi, b.processes[i].prediction.spi);
    EXPECT_EQ(a.processes[i].dynamic_power, b.processes[i].dynamic_power);
  }
  ASSERT_EQ(a.core_power.size(), b.core_power.size());
  for (std::size_t c = 0; c < a.core_power.size(); ++c)
    EXPECT_EQ(a.core_power[c], b.core_power[c]);
  EXPECT_EQ(a.total_power, b.total_power);
  EXPECT_EQ(a.throughput_ips, b.throughput_ips);
}

TEST(ModelEngine, RegistryRoundTrip) {
  ModelEngine eng(sim::four_core_server());
  const auto profiles = suite();
  EXPECT_EQ(eng.process_count(), 0u);
  const ProcessHandle h0 = eng.register_process(profiles[0]);
  const ProcessHandle h1 = eng.register_process(profiles[1]);
  EXPECT_EQ(h0, 0u);
  EXPECT_EQ(h1, 1u);
  EXPECT_EQ(eng.process_count(), 2u);
  EXPECT_EQ(eng.find("worker"), std::optional<ProcessHandle>(h0));
  EXPECT_EQ(eng.find("absent"), std::nullopt);
  EXPECT_EQ(eng.profile(h1).name, "sprinter");
  EXPECT_THROW(eng.profile(99), Error);
}

TEST(ModelEngine, RegistrationValidatesAndNamesTheProcess) {
  ModelEngine eng(sim::four_core_server());
  core::ProcessProfile broken = suite()[0];
  broken.name = "broken-hog";
  broken.features.name.clear();
  broken.features.api = 0.0;  // physically impossible
  try {
    eng.register_process(broken);
    FAIL() << "expected registration to reject api = 0";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("broken-hog"), std::string::npos)
        << "error must name the process: " << e.what();
  }
  core::ProcessProfile anonymous = suite()[0];
  anonymous.name.clear();
  EXPECT_THROW(eng.register_process(anonymous), Error);
  EXPECT_EQ(eng.process_count(), 0u);
}

TEST(ModelEngine, RestoreRebuildsFreshEngineWithDenseHandles) {
  const sim::MachineConfig machine = sim::four_core_server();
  std::vector<core::ProcessProfile> profiles = suite();
  profiles.resize(3);

  // The reference arm: the same state reached through registrations.
  ModelEngine reference(machine, model());
  for (const core::ProcessProfile& p : profiles) reference.register_process(p);

  ModelEngine restored(machine, model());
  restored.restore(profiles, model(), /*power_revision=*/5, /*epoch=*/9);

  EXPECT_EQ(restored.process_count(), 3u);
  EXPECT_EQ(restored.find("worker"), std::optional<ProcessHandle>(0));
  EXPECT_EQ(restored.find("streamer"), std::optional<ProcessHandle>(2));
  EXPECT_EQ(restored.power_revision(), 5u);
  const auto snap = restored.snapshot();
  EXPECT_GE(snap->epoch(), 9u) << "epoch must never move backwards";
  EXPECT_EQ(snap->live_handles(), (std::vector<ProcessHandle>{0, 1, 2}));
  EXPECT_EQ(engine_state_text(*snap),
            engine_state_text(*reference.snapshot()));
}

TEST(ModelEngine, RestoreRefusesNonFreshEngineUntouched) {
  ModelEngine eng(sim::four_core_server());
  eng.register_process(suite()[0]);
  EXPECT_THROW(eng.restore({suite()[1]}, std::nullopt, 0, 1), Error);
  // The refusal must leave the engine exactly as it was.
  EXPECT_EQ(eng.process_count(), 1u);
  EXPECT_EQ(eng.find("worker"), std::optional<ProcessHandle>(0));
  EXPECT_EQ(eng.find("sprinter"), std::nullopt);

  // A power-model checkpoint cannot restore into a power-less engine.
  ModelEngine no_power(sim::four_core_server());
  EXPECT_THROW(no_power.restore({suite()[0]}, model(), 1, 1), Error);
  EXPECT_EQ(no_power.process_count(), 0u);
}

TEST(ModelEngine, EpochCountsEveryPublishAndNothingElse) {
  const sim::MachineConfig machine = sim::four_core_server();
  EXPECT_EQ(ModelEngine(machine).snapshot()->epoch(), 0u);

  ModelEngine eng(machine, model());
  const auto epoch = [&] { return eng.snapshot()->epoch(); };
  EXPECT_EQ(epoch(), 1u) << "the power constructor publishes once";
  const std::vector<core::ProcessProfile> profiles = suite();
  eng.register_process(profiles[0]);
  EXPECT_EQ(epoch(), 2u);
  eng.register_process(profiles[1]);
  EXPECT_EQ(epoch(), 3u);
  eng.register_process(profiles[1]);  // re-registration
  EXPECT_EQ(epoch(), 4u);
  ApplyResult applied = eng.try_apply(Revision::process(0, profiles[0]));
  ASSERT_TRUE(applied.applied) << applied.reason;
  EXPECT_EQ(applied.epoch, 5u);
  applied = eng.try_apply(Revision::power_model(model()));
  ASSERT_TRUE(applied.applied) << applied.reason;
  EXPECT_EQ(applied.epoch, 6u);
  EXPECT_EQ(epoch(), 6u);

  // Every refusal reports the current epoch and publishes nothing.
  const auto refused = [&](Revision revision, const char* label) {
    const ApplyResult r = eng.try_apply(std::move(revision));
    EXPECT_FALSE(r.applied) << label;
    EXPECT_EQ(r.epoch, 6u) << label << ": " << r.reason;
    EXPECT_EQ(epoch(), 6u) << label;
  };
  refused(Revision{}, "no payload");
  Revision both = Revision::process(0, profiles[0]);
  both.power.emplace(model());
  refused(std::move(both), "both payloads");
  core::ProcessProfile invalid = profiles[0];
  invalid.features.api = 0.0;
  refused(Revision::process(0, invalid), "invalid profile");
  refused(Revision::process(99, profiles[0]), "unknown handle");
  core::ProcessProfile collision = profiles[0];
  collision.name = profiles[1].name;
  collision.features.name.clear();
  refused(Revision::process(0, collision), "rename collision");
  core::ProcessProfile alien = profiles[0];
  alien.features.fit_frequency = 123.0;
  refused(Revision::process(0, alien), "fit-frequency mismatch");
  refused(Revision::power_model(core::PowerModel(
              45.0, {1e-9, 1e-9, 1e-9, 1e-9, 1e-9}, 2)),
          "bad power model");

  ModelEngine perf_only(machine);
  const ApplyResult no_model =
      perf_only.try_apply(Revision::power_model(model()));
  EXPECT_FALSE(no_model.applied);
  EXPECT_EQ(no_model.epoch, 0u);
  EXPECT_EQ(perf_only.snapshot()->epoch(), 0u);

  // restore lands at max(current + 1, checkpoint epoch).
  ModelEngine ahead(machine, model());
  ahead.restore({profiles[0]}, model(), 0, /*epoch=*/9);
  EXPECT_EQ(ahead.snapshot()->epoch(), 9u);
  ModelEngine behind(machine, model());
  behind.restore({profiles[0]}, model(), 0, /*epoch=*/0);
  EXPECT_EQ(behind.snapshot()->epoch(), 2u);
}

TEST(ModelEngine, MatchesDirectCompositionBitForBit) {
  const sim::MachineConfig machine = sim::four_core_server();
  const core::PowerModel power = model();
  const auto profiles = suite();
  ModelEngine eng(machine, power);
  for (const auto& p : profiles) eng.register_process(p);

  const auto queries = random_queries(20, profiles.size(), machine.cores,
                                      0xC0FFEE);
  for (const CoScheduleQuery& q : queries) {
    const SystemPrediction direct =
        direct_prediction(machine, &power, profiles, q, eng.options().method);
    expect_bitwise_equal(eng.predict(q), direct);
  }
}

TEST(ModelEngine, BatchIsDeterministicAcrossThreadCounts) {
  const sim::MachineConfig machine = sim::four_core_server();
  const auto profiles = suite();
  const auto queries = random_queries(40, profiles.size(), machine.cores,
                                      0xBEEF);

  std::vector<std::vector<SystemPrediction>> runs;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{5}}) {
    EngineOptions options;
    options.threads = threads;
    ModelEngine eng(machine, model(), options);
    for (const auto& p : profiles) eng.register_process(p);
    runs.push_back(eng.predict_batch(queries));
    // Batched results also match the engine's own serial predict().
    for (std::size_t i = 0; i < queries.size(); ++i)
      expect_bitwise_equal(runs.back()[i], eng.predict(queries[i]));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[r].size(); ++i)
      expect_bitwise_equal(runs[r][i], runs[0][i]);
  }
}

TEST(ModelEngine, ReRegistrationInvalidatesMemoizedArtifacts) {
  const sim::MachineConfig machine = sim::four_core_server();
  const auto profiles = suite();
  ModelEngine eng(machine, model());
  const ProcessHandle worker = eng.register_process(profiles[0]);
  eng.register_process(profiles[1]);

  CoScheduleQuery q;
  q.assignment = core::Assignment::empty(machine.cores);
  q.assignment.per_core[0].push_back(0);
  q.assignment.per_core[1].push_back(1);
  const SystemPrediction before = eng.predict(q);

  // Replace "worker" with a much lighter histogram under the same name:
  // same handle, fresh artifacts, different equilibrium.
  core::ProcessProfile lighter = profiles[0];
  lighter.features.histogram = core::ReuseHistogram({0.7, 0.2}, 0.1);
  const ProcessHandle again = eng.register_process(lighter);
  EXPECT_EQ(again, worker);
  EXPECT_EQ(eng.cache_stats().invalidations, 1u);

  const SystemPrediction after = eng.predict(q);
  EXPECT_NE(after.processes[0].prediction.mpa,
            before.processes[0].prediction.mpa)
      << "stale fill curve survived re-registration";

  // A fresh engine registered directly with the replacement profile
  // must agree bit-for-bit: no residue of the old artifacts.
  ModelEngine fresh(machine, model());
  fresh.register_process(lighter);
  fresh.register_process(profiles[1]);
  expect_bitwise_equal(fresh.predict(q), after);
}

TEST(ModelEngine, UpdateProcessSwapsProfileBehindTheHandle) {
  const sim::MachineConfig machine = sim::four_core_server();
  const auto profiles = suite();
  ModelEngine eng(machine, model());
  const ProcessHandle worker = eng.register_process(profiles[0]);
  eng.register_process(profiles[1]);

  CoScheduleQuery q;
  q.assignment = core::Assignment::empty(machine.cores);
  q.assignment.per_core[0].push_back(0);
  q.assignment.per_core[1].push_back(1);
  const SystemPrediction before = eng.predict(q);

  // A revision under the same name: handle survives, artifacts don't.
  core::ProcessProfile revised = profiles[0];
  revised.revision = 7;
  revised.features.histogram = core::ReuseHistogram({0.7, 0.2}, 0.1);
  const ApplyResult swapped = eng.try_apply(Revision::process(worker, revised));
  ASSERT_TRUE(swapped.applied) << swapped.reason;
  EXPECT_TRUE(swapped.reason.empty());
  EXPECT_EQ(eng.cache_stats().invalidations, 1u);
  EXPECT_EQ(eng.profile(worker).revision, 7u);
  EXPECT_EQ(eng.find("worker"), std::optional<ProcessHandle>(worker));
  EXPECT_EQ(eng.process_count(), 2u);

  const SystemPrediction after = eng.predict(q);
  EXPECT_NE(after.processes[0].prediction.mpa,
            before.processes[0].prediction.mpa)
      << "stale artifacts survived the profile revision";
  ModelEngine fresh(machine, model());
  fresh.register_process(revised);
  fresh.register_process(profiles[1]);
  expect_bitwise_equal(fresh.predict(q), after);

  // A renaming revision moves the name index with the handle...
  core::ProcessProfile renamed = revised;
  renamed.name = "worker-v2";
  renamed.features.name = "worker-v2";
  ASSERT_TRUE(eng.try_apply(Revision::process(worker, renamed)).applied);
  EXPECT_EQ(eng.find("worker"), std::nullopt);
  EXPECT_EQ(eng.find("worker-v2"), std::optional<ProcessHandle>(worker));

  // ...but may not steal another process's name, and the handle must
  // exist. Rejections carry the gate's reason and publish nothing.
  core::ProcessProfile thief = renamed;
  thief.name = "sprinter";
  const ApplyResult stolen = eng.try_apply(Revision::process(worker, thief));
  EXPECT_FALSE(stolen.applied);
  EXPECT_NE(stolen.reason.find("rename collides"), std::string::npos)
      << stolen.reason;
  const ApplyResult unknown = eng.try_apply(Revision::process(99, revised));
  EXPECT_FALSE(unknown.applied);
  EXPECT_NE(unknown.reason.find("unknown process handle"), std::string::npos)
      << unknown.reason;
  EXPECT_EQ(eng.find("worker-v2"), std::optional<ProcessHandle>(worker));
  EXPECT_EQ(eng.find("sprinter"), std::optional<ProcessHandle>(1));
}

TEST(ModelEngine, TryApplyRequiresExactlyOnePayload) {
  const sim::MachineConfig machine = sim::four_core_server();
  ModelEngine eng(machine, model());
  eng.register_process(suite()[0]);
  const std::uint64_t epoch = eng.snapshot()->epoch();

  const ApplyResult empty = eng.try_apply(Revision{});
  EXPECT_FALSE(empty.applied);
  EXPECT_NE(empty.reason.find("no payload"), std::string::npos)
      << empty.reason;
  EXPECT_EQ(empty.epoch, epoch) << "a rejected revision published a snapshot";

  Revision both = Revision::process(0, suite()[0]);
  both.power.emplace(model());
  const ApplyResult dual = eng.try_apply(std::move(both));
  EXPECT_FALSE(dual.applied);
  EXPECT_NE(dual.reason.find("both"), std::string::npos) << dual.reason;
  EXPECT_EQ(eng.snapshot()->epoch(), epoch);
}

TEST(ModelEngine, DefaultsToNewton) {
  EXPECT_EQ(EngineOptions{}.method, core::SolveOptions::Method::kNewton);
}

TEST(ModelEngine, NewtonDefaultAgreesWithBisection) {
  // The two methods stop at different points inside the solver
  // tolerance: S_i agree within 1e-4 ways and SPI within 1e-6 relative.
  // Newton converges on every die with one process per core here; a
  // few time-shared dies stall it and fall back to bisection (see
  // NewtonFailureFallsBackToBisectionBitForBit).
  const sim::MachineConfig machine = sim::four_core_server();
  const auto profiles = suite();
  EngineOptions bisection;
  bisection.method = core::SolveOptions::Method::kBisection;
  ModelEngine newton_eng(machine, model());
  ModelEngine bisection_eng(machine, model(), bisection);
  for (const auto& p : profiles) {
    newton_eng.register_process(p);
    bisection_eng.register_process(p);
  }

  const auto queries = random_queries(40, profiles.size(), machine.cores,
                                      0xD1CE);
  std::size_t one_per_core = 0;
  for (const CoScheduleQuery& q : queries) {
    const SystemPrediction got = newton_eng.predict(q);
    const SystemPrediction ref = bisection_eng.predict(q);
    bool time_shared = false;
    for (const auto& run_queue : q.assignment.per_core)
      time_shared = time_shared || run_queue.size() > 1;
    if (!time_shared) {
      ++one_per_core;
      EXPECT_EQ(got.solver_fallbacks, 0);
    }
    EXPECT_EQ(ref.solver_fallbacks, 0);
    ASSERT_EQ(got.processes.size(), ref.processes.size());
    for (std::size_t i = 0; i < ref.processes.size(); ++i) {
      EXPECT_NEAR(got.processes[i].prediction.effective_size,
                  ref.processes[i].prediction.effective_size, 1e-4);
      EXPECT_NEAR(got.processes[i].prediction.spi,
                  ref.processes[i].prediction.spi,
                  1e-6 * ref.processes[i].prediction.spi);
    }
  }
  EXPECT_GT(one_per_core, 0u);
}

TEST(ModelEngine, NewtonFailureFallsBackToBisectionBitForBit) {
  // "streamer" alone on core 0 beside "sprinter" and "midfield"
  // time-sharing core 1: a die on which Newton stalls.
  const sim::MachineConfig machine = sim::four_core_server();
  const auto profiles = suite();
  const core::EquilibriumSolver solver(machine.l2.ways);
  const std::vector<double> shares = {1.0, 0.5, 0.5};
  ASSERT_THROW(
      solver.solve({profiles[2].features, profiles[1].features,
                    profiles[3].features},
                   core::SolveOptions{
                       .method = core::SolveOptions::Method::kNewton,
                       .cpu_share = shares}),
      Error);

  EngineOptions bisection;
  bisection.method = core::SolveOptions::Method::kBisection;
  ModelEngine newton_eng(machine, model());
  ModelEngine bisection_eng(machine, model(), bisection);
  for (const auto& p : profiles) {
    newton_eng.register_process(p);
    bisection_eng.register_process(p);
  }
  CoScheduleQuery q;
  q.assignment = core::Assignment::empty(machine.cores);
  q.assignment.per_core[0] = {2};
  q.assignment.per_core[1] = {1, 3};

  const SystemPrediction got = newton_eng.predict(q);
  const SystemPrediction ref = bisection_eng.predict(q);
  EXPECT_EQ(got.solver_fallbacks, 1);
  EXPECT_EQ(ref.solver_fallbacks, 0);
  EXPECT_EQ(got.solver_iterations, ref.solver_iterations);
  expect_bitwise_equal(got, ref);
}

TEST(ModelEngine, WarmStartedQueryReachesTheColdFixedPoint) {
  const sim::MachineConfig machine = sim::four_core_server();
  const auto profiles = suite();
  EngineOptions options;
  options.method = core::SolveOptions::Method::kNewton;
  options.threads = 1;
  ModelEngine eng(machine, model(), options);
  for (const auto& p : profiles) eng.register_process(p);

  CoScheduleQuery cold;
  cold.assignment = core::Assignment::empty(machine.cores);
  cold.assignment.per_core[0].push_back(0);
  cold.assignment.per_core[1].push_back(2);
  cold.assignment.per_core[2].push_back(1);
  cold.assignment.per_core[3].push_back(3);
  const SystemPrediction ref = eng.predict(cold);
  EXPECT_GT(ref.solver_iterations, 0);

  CoScheduleQuery warm = cold;
  for (const ProcessOperatingPoint& pt : ref.processes)
    warm.warm_start.push_back(pt.prediction.effective_size);
  const SystemPrediction seeded = eng.predict(warm);

  ASSERT_EQ(seeded.processes.size(), ref.processes.size());
  for (std::size_t i = 0; i < ref.processes.size(); ++i) {
    EXPECT_NEAR(seeded.processes[i].prediction.effective_size,
                ref.processes[i].prediction.effective_size, 1e-4);
    EXPECT_NEAR(seeded.processes[i].prediction.spi,
                ref.processes[i].prediction.spi,
                1e-6 * ref.processes[i].prediction.spi);
  }
  EXPECT_LE(seeded.solver_iterations, ref.solver_iterations);
  EXPECT_LE(seeded.solver_iterations, 2 * static_cast<int>(machine.dies))
      << "a seed at the fixed point should converge in 1-2 Newton "
         "iterations per die";

  CoScheduleQuery wrong = cold;
  wrong.warm_start = {8.0};  // one seed for four processes
  EXPECT_THROW(eng.predict(wrong), Error);
}

TEST(ModelEngine, ConcurrentUpdatesNeverTearABatch) {
  // predict_batch resolves one epoch snapshot for the whole batch, so
  // a concurrent try_apply must never produce a batch whose identical
  // queries mix old- and new-profile answers. Run with TSan in CI to
  // also certify the publish discipline.
  const sim::MachineConfig machine = sim::four_core_server();
  const auto profiles = suite();
  EngineOptions options;
  options.threads = 2;
  ModelEngine eng(machine, model(), options);
  for (const auto& p : profiles) eng.register_process(p);

  core::ProcessProfile variant = profiles[0];
  variant.features.histogram = core::ReuseHistogram({0.7, 0.2}, 0.1);
  variant.revision = 1;

  CoScheduleQuery q;
  q.assignment = core::Assignment::empty(machine.cores);
  q.assignment.per_core[0].push_back(0);
  q.assignment.per_core[1].push_back(2);
  const std::vector<CoScheduleQuery> batch(16, q);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    bool flip = false;
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(
          eng.try_apply(Revision::process(0, flip ? variant : profiles[0]))
              .applied);
      flip = !flip;
    }
  });

  // A batch prices in microseconds, so read for 50 rounds *and* until
  // the writer has published a few revisions: otherwise every round can
  // finish before the writer thread first runs.
  const std::uint64_t first_epoch = eng.snapshot()->epoch();
  for (int round = 0; round < 50 || eng.snapshot()->epoch() < first_epoch + 4;
       ++round) {
    const std::vector<SystemPrediction> out = eng.predict_batch(batch);
    ASSERT_EQ(out.size(), batch.size());
    for (std::size_t i = 1; i < out.size(); ++i)
      expect_bitwise_equal(out[i], out[0]);
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GT(eng.cache_stats().invalidations, 0u);
}

TEST(ModelEngine, PartitionedQueryMatchesPredictPartitioned) {
  const sim::MachineConfig machine = sim::four_core_server();
  const auto profiles = suite();
  ModelEngine eng(machine);
  for (const auto& p : profiles) eng.register_process(p);

  CoScheduleQuery q;
  q.assignment = core::Assignment::empty(machine.cores);
  q.assignment.per_core[0].push_back(0);  // die 0: partitioned
  q.assignment.per_core[1].push_back(2);
  q.assignment.per_core[2].push_back(1);  // die 1: left shared
  q.partition = {{10, 6}, {}};
  const SystemPrediction pred = eng.predict(q);

  const auto expected = core::predict_partitioned(
      {profiles[0].features, profiles[2].features}, {10, 6});
  ASSERT_EQ(pred.processes.size(), 3u);
  EXPECT_EQ(pred.processes[0].prediction.spi, expected[0].spi);
  EXPECT_EQ(pred.processes[0].prediction.mpa, expected[0].mpa);
  EXPECT_EQ(pred.processes[1].prediction.spi, expected[1].spi);

  // Over-committed or miscounted partitions are rejected.
  q.partition = {{10, 12}, {}};
  EXPECT_THROW(eng.predict(q), Error);
  q.partition = {{16}, {}};
  EXPECT_THROW(eng.predict(q), Error);
  q.partition = {{10, 6}};
  EXPECT_THROW(eng.predict(q), Error);
}

TEST(ModelEngine, PerformanceOnlyEngineLeavesPowerZero) {
  const sim::MachineConfig machine = sim::four_core_server();
  ModelEngine eng(machine);
  EXPECT_FALSE(eng.has_power_model());
  EXPECT_THROW(eng.power_model(), Error);
  eng.register_process(suite()[0]);
  CoScheduleQuery q;
  q.assignment = core::Assignment::empty(machine.cores);
  q.assignment.per_core[0].push_back(0);
  const SystemPrediction pred = eng.predict(q);
  EXPECT_TRUE(pred.core_power.empty());
  EXPECT_EQ(pred.total_power, 0.0);
  EXPECT_EQ(pred.processes[0].dynamic_power, 0.0);
  EXPECT_GT(pred.throughput_ips, 0.0);
  EXPECT_EQ(pred.energy_per_instruction(), 0.0);
}

TEST(ModelEngine, CacheStatsCountHitsAndMisses) {
  const sim::MachineConfig machine = sim::four_core_server();
  const auto profiles = suite();
  EngineOptions options;
  options.threads = 1;  // deterministic counter accounting
  ModelEngine eng(machine, model(), options);
  for (const auto& p : profiles) eng.register_process(p);

  CoScheduleQuery q;
  q.assignment = core::Assignment::empty(machine.cores);
  for (std::uint32_t c = 0; c < machine.cores; ++c)
    q.assignment.per_core[c].push_back(c);

  eng.predict(q);
  const auto first = eng.cache_stats();
  EXPECT_EQ(first.misses, 4u);  // one fill-curve build per process used
  EXPECT_EQ(first.hits, 0u);

  const std::vector<CoScheduleQuery> batch(8, q);
  eng.predict_batch(batch);
  const auto second = eng.cache_stats();
  EXPECT_EQ(second.misses, 4u);  // nothing rebuilt
  EXPECT_EQ(second.hits, 32u);
  EXPECT_GT(second.hit_rate(), 0.8);
}

TEST(ModelEngine, PredictBatchPropagatesWorkerExceptions) {
  // A poisoned query inside a batch must surface to the caller as the
  // engine's own Error (thrown on a pool worker, rethrown from
  // parallel_for), and the engine must stay fully usable afterwards.
  const sim::MachineConfig machine = sim::four_core_server();
  const auto profiles = suite();
  EngineOptions options;
  options.threads = 3;
  ModelEngine eng(machine, model(), options);
  for (const auto& p : profiles) eng.register_process(p);

  const auto queries = random_queries(12, profiles.size(), machine.cores,
                                      0xFEED);
  std::vector<CoScheduleQuery> poisoned = queries;
  poisoned[7].assignment.per_core[0].push_back(42);  // unknown handle
  EXPECT_THROW(eng.predict_batch(poisoned), Error);

  const std::vector<SystemPrediction> clean = eng.predict_batch(queries);
  ASSERT_EQ(clean.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i)
    expect_bitwise_equal(clean[i], eng.predict(queries[i]));
}

TEST(ModelEngine, PowerRevisionInstallsAndRepricesPredictions) {
  const sim::MachineConfig machine = sim::four_core_server();
  ModelEngine eng(machine, model());
  eng.register_process(suite()[0]);
  EXPECT_EQ(eng.power_revision(), 0u);

  CoScheduleQuery q;
  q.assignment = core::Assignment::empty(machine.cores);
  q.assignment.per_core[0].push_back(0);
  const SystemPrediction before = eng.predict(q);

  core::PowerModel revised(50.0, {7.0e-9, 2.0e-8, -9.0e-8, 4.0e-9, 5.0e-9},
                           4);
  const ApplyResult applied = eng.try_apply(Revision::power_model(revised));
  ASSERT_TRUE(applied.applied) << applied.reason;
  EXPECT_EQ(applied.epoch, eng.snapshot()->epoch());
  EXPECT_EQ(eng.power_revision(), 1u);
  EXPECT_DOUBLE_EQ(eng.power_model().idle_total(), 50.0);

  const SystemPrediction after = eng.predict(q);
  EXPECT_NE(after.total_power, before.total_power);
  // Performance side is untouched by a power swap.
  EXPECT_DOUBLE_EQ(after.throughput_ips, before.throughput_ips);
}

TEST(ModelEngine, TryApplyRejectsInvalidPowerAndKeepsLastGood) {
  const sim::MachineConfig machine = sim::four_core_server();
  ModelEngine eng(machine, model());

  // Wrong core count.
  const ApplyResult cores = eng.try_apply(Revision::power_model(
      core::PowerModel(45.0, {1e-9, 1e-9, 1e-9, 1e-9, 1e-9}, 2)));
  EXPECT_FALSE(cores.applied);
  EXPECT_NE(cores.reason.find("core count"), std::string::npos)
      << cores.reason;
  // Non-finite coefficient.
  const ApplyResult nan = eng.try_apply(Revision::power_model(core::PowerModel(
      45.0, {std::numeric_limits<double>::quiet_NaN(), 0, 0, 0, 0}, 4)));
  EXPECT_FALSE(nan.applied);
  EXPECT_NE(nan.reason.find("non-finite"), std::string::npos) << nan.reason;
  EXPECT_EQ(eng.power_revision(), 0u);
  // Last-good survives every rejection bit-for-bit.
  EXPECT_DOUBLE_EQ(eng.power_model().idle_total(), model().idle_total());
  EXPECT_EQ(eng.power_model().coefficients(), model().coefficients());

  // A performance-only engine refuses power revisions outright.
  ModelEngine perf_only(machine);
  const ApplyResult refused = perf_only.try_apply(
      Revision::power_model(model()));
  EXPECT_FALSE(refused.applied);
  EXPECT_NE(refused.reason.find("without a power model"), std::string::npos)
      << refused.reason;
}

TEST(ModelEngine, ConcurrentPredictAndPowerUpdatesStayConsistent) {
  // predict/predict_batch read the power model out of the epoch
  // snapshot they pinned while try_apply publishes fresh snapshots;
  // run under TSan in CI to certify the publish path. Batch answers
  // must be uniform — never a mix of old- and new-model pricing
  // inside one batch.
  const sim::MachineConfig machine = sim::four_core_server();
  const auto profiles = suite();
  EngineOptions options;
  options.threads = 2;
  ModelEngine eng(machine, model(), options);
  for (const auto& p : profiles) eng.register_process(p);

  const core::PowerModel drifted(
      52.0, {6.5e-9, 2.4e-8, -1.1e-7, 4.2e-9, 5.1e-9}, 4);

  CoScheduleQuery q;
  q.assignment = core::Assignment::empty(machine.cores);
  q.assignment.per_core[0].push_back(0);
  q.assignment.per_core[1].push_back(2);
  const std::vector<CoScheduleQuery> batch(16, q);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    bool flip = false;
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(
          eng.try_apply(Revision::power_model(flip ? drifted : model()))
              .applied);
      flip = !flip;
    }
  });

  // A batch prices in microseconds, so read for 50 rounds *and* until
  // the writer has published a few revisions: otherwise every round can
  // finish before the writer thread first runs.
  const std::uint64_t first_epoch = eng.snapshot()->epoch();
  for (int round = 0; round < 50 || eng.snapshot()->epoch() < first_epoch + 4;
       ++round) {
    const std::vector<SystemPrediction> out = eng.predict_batch(batch);
    ASSERT_EQ(out.size(), batch.size());
    for (std::size_t i = 1; i < out.size(); ++i)
      expect_bitwise_equal(out[i], out[0]);
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GT(eng.power_revision(), 0u);
}

TEST(ModelEngine, SnapshotStaysStableWhileRevisionsLand) {
  // The epoch-snapshot contract: a reader holding snapshot() predicts
  // bit-identically to a quiesced engine at that epoch, no matter how
  // many revisions land in between — here 100 profile revisions plus
  // a power swap, all published while the pinned snapshot is in use.
  const sim::MachineConfig machine = sim::four_core_server();
  const auto profiles = suite();
  EngineOptions options;
  options.threads = 2;
  ModelEngine eng(machine, model(), options);
  for (const auto& p : profiles) eng.register_process(p);

  const auto queries = random_queries(24, profiles.size(), machine.cores,
                                      0xD1CE);
  const std::shared_ptr<const EngineSnapshot> pinned = eng.snapshot();
  const std::uint64_t pinned_epoch = pinned->epoch();
  const std::vector<SystemPrediction> quiesced =
      eng.predict_batch(*pinned, queries);

  core::ProcessProfile variant = profiles[0];
  variant.features.histogram = core::ReuseHistogram({0.7, 0.2}, 0.1);
  for (int i = 0; i < 100; ++i) {
    variant.revision = static_cast<std::uint64_t>(i + 1);
    ASSERT_TRUE(eng.try_apply(Revision::process(0, variant)).applied);
  }
  ASSERT_TRUE(eng.try_apply(
                     Revision::power_model(core::PowerModel(
                         60.0, {7.0e-9, 2.0e-8, -9.0e-8, 4.0e-9, 5.0e-9}, 4)))
                  .applied);
  EXPECT_EQ(eng.snapshot()->epoch(), pinned_epoch + 101);

  // The pinned snapshot still answers from its own epoch...
  EXPECT_EQ(pinned->profile(0).revision, 0u);
  EXPECT_EQ(pinned->power_revision(), 0u);
  const std::vector<SystemPrediction> replayed =
      eng.predict_batch(*pinned, queries);
  ASSERT_EQ(replayed.size(), quiesced.size());
  for (std::size_t i = 0; i < replayed.size(); ++i)
    expect_bitwise_equal(replayed[i], quiesced[i]);
  for (const CoScheduleQuery& q : queries)
    expect_bitwise_equal(eng.predict(*pinned, q),
                         quiesced[&q - queries.data()]);

  // ...while the live engine answers from the newest one.
  EXPECT_EQ(eng.profile(0).revision, 100u);
  EXPECT_EQ(eng.power_revision(), 1u);
  CoScheduleQuery q;
  q.assignment = core::Assignment::empty(machine.cores);
  q.assignment.per_core[0].push_back(0);
  EXPECT_NE(eng.predict(q).total_power, eng.predict(*pinned, q).total_power);
}

TEST(ModelEngine, SnapshotSharesSurvivorArtifactsAcrossEpochs) {
  // Publishing a new epoch must not rebuild untouched processes'
  // memoized fill curves: entries are shared between snapshots, so a
  // revision of one handle leaves every other handle's artifacts hot.
  const sim::MachineConfig machine = sim::four_core_server();
  const auto profiles = suite();
  EngineOptions options;
  options.threads = 1;  // deterministic counter accounting
  ModelEngine eng(machine, model(), options);
  for (const auto& p : profiles) eng.register_process(p);

  CoScheduleQuery q;
  q.assignment = core::Assignment::empty(machine.cores);
  q.assignment.per_core[0].push_back(1);
  q.assignment.per_core[1].push_back(3);
  eng.predict(q);
  const auto before = eng.cache_stats();
  EXPECT_EQ(before.misses, 2u);

  core::ProcessProfile variant = profiles[0];
  variant.revision = 1;
  ASSERT_TRUE(eng.try_apply(Revision::process(0, variant)).applied);
  eng.predict(q);  // handles 1 and 3 untouched by the epoch change
  const auto after = eng.cache_stats();
  EXPECT_EQ(after.misses, before.misses)
      << "an epoch publish rebuilt a survivor's memoized artifacts";
  EXPECT_GT(after.hits, before.hits);
}

TEST(ModelEngine, QueryClockRescalesPredictionsExactly) {
  const sim::MachineConfig machine = sim::four_core_server();
  ModelEngine eng(machine, model());
  core::ProcessProfile p = suite()[0];
  p.features.fit_frequency = machine.frequency;
  const ProcessHandle h = eng.register_process(p);

  CoScheduleQuery q;
  q.assignment = core::Assignment::empty(machine.cores);
  q.assignment.per_core[0].push_back(h);
  const SystemPrediction at_default = eng.predict(q);

  // Alone on the die the cache share is clock-free, so Eq. 3's 1/f
  // factor is the whole story: halving every clock exactly doubles
  // SPI, leaves MPA untouched, and halves throughput.
  CoScheduleQuery half = q;
  half.core_frequency.assign(machine.cores, machine.frequency / 2);
  const SystemPrediction slowed = eng.predict(half);
  ASSERT_EQ(slowed.processes.size(), 1u);
  EXPECT_DOUBLE_EQ(slowed.processes[0].prediction.spi,
                   2.0 * at_default.processes[0].prediction.spi);
  EXPECT_DOUBLE_EQ(slowed.processes[0].prediction.mpa,
                   at_default.processes[0].prediction.mpa);
  EXPECT_DOUBLE_EQ(slowed.throughput_ips, at_default.throughput_ips / 2.0);
  // Slower clock → lower event rates → less dynamic power.
  EXPECT_LT(slowed.total_power, at_default.total_power);

  // Querying the machine's own clock explicitly is bit-identical to
  // no override (at_frequency is an exact no-op at the fit clock).
  CoScheduleQuery same = q;
  same.core_frequency.assign(machine.cores, machine.frequency);
  expect_bitwise_equal(eng.predict(same), at_default);

  // A legacy profile (no recorded fit clock) ignores the override and
  // predicts exactly as before — the backward-compatibility contract.
  const ProcessHandle legacy = eng.register_process(suite()[1]);
  CoScheduleQuery lq;
  lq.assignment = core::Assignment::empty(machine.cores);
  lq.assignment.per_core[0].push_back(legacy);
  const SystemPrediction plain = eng.predict(lq);
  CoScheduleQuery lhalf = lq;
  lhalf.core_frequency.assign(machine.cores, machine.frequency / 2);
  expect_bitwise_equal(eng.predict(lhalf), plain);

  EXPECT_THROW(
      {
        CoScheduleQuery bad = q;
        bad.core_frequency = {1e9};  // wrong length
        eng.predict(bad);
      },
      Error);
  EXPECT_THROW(
      {
        CoScheduleQuery bad = q;
        bad.core_frequency.assign(machine.cores, -1e9);
        eng.predict(bad);
      },
      Error);
}

TEST(ModelEngine, MultiProcessWhatIfMatchesAtFrequencyCopiesBitForBit) {
  // predict borrows each histogram and scales α/β in place; the
  // at_frequency copies fed to the FeatureVector solve and to
  // predict_partitioned must give the same bits. Die 0 holds three
  // processes (two time-sharing core 0), die 1 two; every busy core
  // runs at a DVFS level other than the machine's 2.4 GHz default, and
  // "sprinter" is a legacy profile (fit_frequency 0) that ignores it.
  const sim::MachineConfig machine = sim::four_core_server();
  const core::PowerModel power = model();
  auto profiles = suite();
  for (std::size_t i = 0; i < profiles.size(); ++i)
    if (profiles[i].name != "sprinter")
      profiles[i].features.fit_frequency = machine.frequency;
  const std::vector<Hertz>& levels = machine.dvfs_levels;

  CoScheduleQuery shared;
  shared.assignment = core::Assignment::empty(machine.cores);
  shared.assignment.per_core[0] = {0, 1};
  shared.assignment.per_core[1] = {2};
  shared.assignment.per_core[2] = {3};
  shared.assignment.per_core[3] = {4};
  shared.core_frequency = {levels[0], levels[1], levels[2], levels[0]};
  CoScheduleQuery pinned = shared;  // die 0 way-partitioned, die 1 shared
  pinned.partition = {{7, 4, 5}, {}};
  CoScheduleQuery at_default = shared;
  at_default.core_frequency.clear();

  for (const auto method : {core::SolveOptions::Method::kNewton,
                            core::SolveOptions::Method::kBisection}) {
    SCOPED_TRACE(method == core::SolveOptions::Method::kNewton ? "newton"
                                                               : "bisection");
    EngineOptions options;
    options.method = method;
    ModelEngine eng(machine, power, options);
    for (const auto& p : profiles) eng.register_process(p);
    for (const CoScheduleQuery* q : {&shared, &pinned, &at_default})
      expect_bitwise_equal(eng.predict(*q), direct_prediction(machine, &power,
                                                              profiles, *q,
                                                              method));
    // The what-if clocks are live: every rescaled process runs slower
    // than at the default clock.
    const SystemPrediction slow = eng.predict(shared);
    const SystemPrediction fast = eng.predict(at_default);
    ASSERT_EQ(slow.processes.size(), fast.processes.size());
    for (std::size_t i = 0; i < slow.processes.size(); ++i) {
      if (profiles[slow.processes[i].handle].name == "sprinter") continue;
      EXPECT_GT(slow.processes[i].prediction.spi,
                fast.processes[i].prediction.spi);
    }
  }
}

TEST(ModelEngine, TryApplyRejectsFitFrequencyMismatch) {
  const sim::MachineConfig machine = sim::four_core_server();
  ASSERT_FALSE(machine.dvfs_levels.empty());
  ModelEngine eng(machine, model());
  core::ProcessProfile original = suite()[0];
  original.features.fit_frequency = machine.frequency;
  const ProcessHandle h = eng.register_process(original);
  const std::uint64_t epoch = eng.snapshot()->epoch();

  // A revision fitted at a clock this machine cannot run at would
  // silently mis-predict every query: validate-before-mutate rejects
  // it with a named reason and the last-good profile survives.
  core::ProcessProfile alien = original;
  alien.features.fit_frequency = 123.0;
  const ApplyResult rejected = eng.try_apply(Revision::process(h, alien));
  EXPECT_FALSE(rejected.applied);
  EXPECT_NE(rejected.reason.find("fit-frequency mismatch"),
            std::string::npos)
      << rejected.reason;
  EXPECT_EQ(rejected.epoch, epoch) << "rejection published a snapshot";
  EXPECT_DOUBLE_EQ(eng.profile(h).features.fit_frequency,
                   machine.frequency);

  // Any advertised DVFS level is a valid fit clock, and a legacy
  // revision (fit_frequency 0) predates the gate and passes.
  core::ProcessProfile leveled = original;
  leveled.features.fit_frequency = machine.dvfs_levels.front();
  EXPECT_TRUE(eng.try_apply(Revision::process(h, leveled)).applied);
  core::ProcessProfile legacy = original;
  legacy.features.fit_frequency = 0.0;
  EXPECT_TRUE(eng.try_apply(Revision::process(h, legacy)).applied);
}

TEST(ModelEngine, RejectsMismatchedPowerModelAndBadQueries) {
  EXPECT_THROW(ModelEngine(sim::two_core_workstation(), model()), Error);

  ModelEngine eng(sim::four_core_server());
  eng.register_process(suite()[0]);
  CoScheduleQuery q;
  q.assignment = core::Assignment::empty(4);
  q.assignment.per_core[0].push_back(7);  // unknown handle
  EXPECT_THROW(eng.predict(q), Error);
}

/// Copies `from` into a reused query field by field, as a QuerySource
/// that fills its scratch does.
const CoScheduleQuery& fill_from(const CoScheduleQuery& from,
                                 CoScheduleQuery& scratch) {
  scratch.assignment.per_core = from.assignment.per_core;
  scratch.partition = from.partition;
  scratch.warm_start = from.warm_start;
  scratch.core_frequency = from.core_frequency;
  return scratch;
}

/// Random queries with what-if clocks, warm starts and partitions mixed
/// in, so a filled scratch carries every field from one query to the
/// next.
std::vector<CoScheduleQuery> mixed_queries(const sim::MachineConfig& machine,
                                           std::size_t count,
                                           std::size_t processes) {
  std::vector<CoScheduleQuery> queries =
      random_queries(count, processes, machine.cores, 0xD1CE);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    CoScheduleQuery& q = queries[i];
    if (i % 3 == 1) {
      q.core_frequency.assign(machine.cores, machine.dvfs_levels.front());
      q.core_frequency[i % machine.cores] = machine.dvfs_levels.back();
    }
    if (i % 4 == 2)
      q.warm_start.assign(q.assignment.process_count(), 3.0);
    if (i % 5 == 3) {
      // Way-partition die 0 evenly when it runs one process per core.
      std::vector<std::uint32_t> quotas;
      bool single = true;
      for (CoreId c : machine.cores_on_die(0)) {
        single = single && q.assignment.per_core[c].size() <= 1;
        if (q.assignment.per_core[c].size() == 1) quotas.push_back(4);
      }
      if (single && !quotas.empty()) {
        q.partition.resize(machine.dies);
        q.partition[0] = quotas;
      }
    }
  }
  return queries;
}

TEST(ModelEngine, PredictEachMatchesPredictBatchBitForBit) {
  const sim::MachineConfig machine = sim::four_core_server();
  const auto profiles = suite();
  const std::vector<CoScheduleQuery> queries =
      mixed_queries(machine, 60, profiles.size());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(threads);
    EngineOptions options;
    options.threads = threads;
    ModelEngine eng(machine, model(), options);
    for (const auto& p : profiles) eng.register_process(p);
    const auto snap = eng.snapshot();
    const std::vector<SystemPrediction> batch =
        eng.predict_batch(*snap, queries);

    std::vector<SystemPrediction> filled(queries.size());
    eng.predict_each(
        *snap, queries.size(),
        [&](std::size_t i, CoScheduleQuery& scratch)
            -> const CoScheduleQuery& { return fill_from(queries[i], scratch); },
        [&](std::size_t i, const SystemPrediction& p) { filled[i] = p; });
    for (std::size_t i = 0; i < queries.size(); ++i) {
      expect_bitwise_equal(filled[i], batch[i]);
      EXPECT_EQ(filled[i].solver_iterations, batch[i].solver_iterations);
      EXPECT_EQ(filled[i].solver_fallbacks, batch[i].solver_fallbacks);
      expect_bitwise_equal(batch[i], eng.predict(*snap, queries[i]));
    }
  }
}

TEST(ModelEngine, PredictEachOfNothingCallsNothing) {
  const sim::MachineConfig machine = sim::four_core_server();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    EngineOptions options;
    options.threads = threads;
    ModelEngine eng(machine, model(), options);
    eng.register_process(suite()[0]);
    int calls = 0;
    eng.predict_each(
        *eng.snapshot(), 0,
        [&](std::size_t, CoScheduleQuery& scratch) -> const CoScheduleQuery& {
          ++calls;
          return scratch;
        },
        [&](std::size_t, const SystemPrediction&) { ++calls; });
    EXPECT_EQ(calls, 0);
  }
}

TEST(ModelEngine, PredictEachRethrowsSourceAndQueryErrors) {
  const sim::MachineConfig machine = sim::four_core_server();
  const auto profiles = suite();
  const auto queries = random_queries(16, profiles.size(), machine.cores,
                                      0xFACE);
  CoScheduleQuery invalid = queries[0];
  invalid.assignment.per_core[0].push_back(42);  // unknown handle
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(threads);
    EngineOptions options;
    options.threads = threads;
    ModelEngine eng(machine, model(), options);
    for (const auto& p : profiles) eng.register_process(p);
    const auto snap = eng.snapshot();
    const auto ignore = [](std::size_t, const SystemPrediction&) {};

    EXPECT_THROW(
        eng.predict_each(
            *snap, queries.size(),
            [&](std::size_t i, CoScheduleQuery&) -> const CoScheduleQuery& {
              if (i == 9) throw std::runtime_error("source failed");
              return queries[i];
            },
            ignore),
        std::runtime_error);
    EXPECT_THROW(
        eng.predict_each(
            *snap, queries.size(),
            [&](std::size_t i, CoScheduleQuery&) -> const CoScheduleQuery& {
              return i == 5 ? invalid : queries[i];
            },
            ignore),
        Error);

    // Nothing is left on loan: the engine prices normally afterwards.
    const std::vector<SystemPrediction> clean = eng.predict_batch(queries);
    for (std::size_t i = 0; i < queries.size(); ++i)
      expect_bitwise_equal(clean[i], eng.predict(queries[i]));
  }
}

TEST(ModelEngine, ReusedScratchLeaksNothingBetweenQueries) {
  // On an inline engine every index prices on the caller's thread, so
  // both queries go through one scratch query and one scratch
  // prediction: a 3-process time-shared, warm-started, re-clocked query
  // and a 1-process default one, in both orders.
  const sim::MachineConfig machine = sim::four_core_server();
  const auto profiles = suite();
  EngineOptions options;
  options.threads = 1;
  ModelEngine eng(machine, model(), options);
  for (const auto& p : profiles) eng.register_process(p);

  CoScheduleQuery big;
  big.assignment = core::Assignment::empty(machine.cores);
  big.assignment.per_core[0] = {0, 1};
  big.assignment.per_core[2] = {2};
  big.warm_start = {5.0, 5.0, 6.0};
  big.core_frequency.assign(machine.cores, machine.dvfs_levels.front());
  CoScheduleQuery small;
  small.assignment = core::Assignment::empty(machine.cores);
  small.assignment.per_core[3] = {4};

  for (const bool big_first : {true, false}) {
    SCOPED_TRACE(big_first);
    const CoScheduleQuery* order[2] = {&big, &small};
    if (!big_first) std::swap(order[0], order[1]);
    // Each prediction is compared with a fresh ModelEngine::predict
    // inside the sink, while the scratch still holds it.
    std::vector<const CoScheduleQuery*> scratches;
    int checked = 0;
    eng.predict_each(
        *eng.snapshot(), 2,
        [&](std::size_t i, CoScheduleQuery& scratch)
            -> const CoScheduleQuery& {
          scratches.push_back(&scratch);
          return fill_from(*order[i], scratch);
        },
        [&](std::size_t i, const SystemPrediction& p) {
          const SystemPrediction fresh = eng.predict(*order[i]);
          expect_bitwise_equal(p, fresh);
          EXPECT_EQ(p.solver_iterations, fresh.solver_iterations);
          EXPECT_EQ(p.processes.size(),
                    order[i]->assignment.process_count());
          ++checked;
        });
    EXPECT_EQ(checked, 2);
    ASSERT_EQ(scratches.size(), 2u);
    EXPECT_EQ(scratches[0], scratches[1]);
  }
}

}  // namespace
}  // namespace repro::engine

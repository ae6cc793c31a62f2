// Input generator: the only consumer of the workload seed. Everything
// here runs before any timing; the timed code receives only its output.
#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <utility>

#include "bench.hpp"
#include "repro/common/rng.hpp"
#include "repro/core/analytic.hpp"
#include "repro/sim/fault_injector.hpp"
#include "repro/workload/spec.hpp"

namespace perfbench {

using namespace repro;

namespace {

/// The paper's main testsuite: the first eight suite specs.
constexpr std::size_t kSuite = 8;

const workload::WorkloadSpec& suite_spec(std::size_t i) {
  return workload::spec_suite().at(i % kSuite);
}

/// One decorrelated stream per purpose, all derived from the seed.
Rng stream_rng(std::uint64_t seed, std::uint64_t purpose) {
  Rng root(seed);
  return root.fork(purpose);
}

}  // namespace

core::PowerModel fixed_power_model(std::uint32_t cores) {
  return core::PowerModel(45.0, {6.0e-9, 2.2e-8, -1.0e-7, 4.5e-9, 5.5e-9},
                          cores);
}

core::ProcessProfile analytic_profile(const Inputs& in, std::size_t pid,
                                      std::size_t spec,
                                      std::uint64_t revision) {
  const workload::WorkloadSpec& s = suite_spec(spec);
  core::ProcessProfile p;
  p.name = "proc" + std::to_string(pid);
  p.revision = revision;
  p.features = core::analytic_features(s, in.machine);
  p.features.name = p.name;
  p.alone.l1rpi = s.mix.l1_rpi;
  p.alone.l2rpi = s.mix.l2_api;
  p.alone.brpi = s.mix.branch_pi;
  p.alone.fppi = s.mix.fp_pi;
  p.alone.l2mpr = p.features.histogram.mpa(in.machine.l2.ways);
  p.alone.spi = p.features.spi_at(p.alone.l2mpr);
  p.power_alone = 55.0;
  return p;
}

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.machine = sim::four_core_server();
  Rng rng = stream_rng(seed, 1);
  std::vector<std::size_t> perm(kSuite);
  for (std::size_t i = 0; i < kSuite; ++i) perm[i] = i;
  for (std::size_t i = kSuite - 1; i > 0; --i)
    std::swap(perm[i], perm[rng.uniform_index(i + 1)]);
  for (std::size_t pid = 0; pid < kProcesses; ++pid) {
    in.spec_of.push_back(perm[pid]);
    in.profiles.push_back(analytic_profile(in, pid, perm[pid], 0));
  }
  return in;
}

std::vector<engine::CoScheduleQuery> make_sweep_queries(const Inputs& in,
                                                        std::uint64_t seed,
                                                        std::size_t count) {
  Rng rng = stream_rng(seed, 2);
  const sim::MachineConfig& m = in.machine;
  std::vector<engine::CoScheduleQuery> out;
  out.reserve(count);
  for (std::size_t q = 0; q < count; ++q) {
    engine::CoScheduleQuery query;
    query.assignment = core::Assignment::empty(m.cores);
    // 2..8 of the processes (stratified: every count equally often, so
    // pools from different seeds cost alike), each on a uniformly drawn
    // core: with more processes than cores, some time-share.
    const std::size_t placed = 2 + q % (kProcesses - 1);
    std::vector<std::size_t> order(kProcesses);
    for (std::size_t i = 0; i < kProcesses; ++i) order[i] = i;
    for (std::size_t i = kProcesses - 1; i > 0; --i)
      std::swap(order[i], order[rng.uniform_index(i + 1)]);
    for (std::size_t i = 0; i < placed; ++i)
      query.assignment.per_core[rng.uniform_index(m.cores)].push_back(
          order[i]);
    if (q % 4 == 3) {
      // Pin a way partition on every occupied die: one way each, the
      // rest dealt out at random, up to two ways left unclaimed.
      query.partition.resize(m.dies);
      for (DieId d = 0; d < m.dies; ++d) {
        std::size_t n = 0;
        for (CoreId c : m.cores_on_die(d))
          n += query.assignment.per_core[c].size();
        if (n == 0) continue;
        std::vector<std::uint32_t> quota(n, 1);
        const std::uint32_t spare =
            m.l2.ways - static_cast<std::uint32_t>(n) -
            static_cast<std::uint32_t>(rng.uniform_index(3));
        for (std::uint32_t w = 0; w < spare; ++w)
          ++quota[rng.uniform_index(n)];
        query.partition[d] = std::move(quota);
      }
    }
    out.push_back(std::move(query));
  }
  return out;
}

std::vector<std::size_t> seeded_sample(std::uint64_t seed,
                                       std::uint64_t purpose, std::size_t n,
                                       std::size_t k) {
  Rng rng = stream_rng(seed, 100 + purpose);
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k && n > 0; ++i)
    out.push_back(static_cast<std::size_t>(rng.uniform_index(n)));
  return out;
}

std::vector<std::vector<core::ProcessProfile>> make_govern_phases(
    const Inputs& in, std::uint64_t seed, std::size_t phases) {
  Rng rng = stream_rng(seed, 4);
  std::vector<std::vector<core::ProcessProfile>> out(kProcesses);
  for (std::size_t pid = 0; pid < kProcesses; ++pid) {
    std::size_t spec = in.spec_of[pid];
    for (std::size_t j = 0; j < phases; ++j) {
      spec = (spec + 1 + rng.uniform_index(kSuite - 1)) % kSuite;
      out[pid].push_back(analytic_profile(in, pid, spec, 0));
    }
  }
  return out;
}

engine::CoScheduleQuery stream_query(const Inputs& in) {
  engine::CoScheduleQuery q;
  q.assignment = core::Assignment::empty(in.machine.cores);
  for (std::size_t pid = 0; pid < kProcesses; ++pid)
    q.assignment.per_core[pid / 2].push_back(pid);
  return q;
}

StreamInputs make_stream_inputs(const Inputs& in, std::uint64_t seed,
                                std::size_t windows) {
  const sim::MachineConfig& m = in.machine;
  Rng rng = stream_rng(seed, 3);
  StreamInputs out;
  out.generated = windows;

  // The measured package follows a drifted Eq. 9 model, so on-line
  // power refits have something real to find.
  const core::PowerModel base = fixed_power_model(m.cores);
  std::array<double, 5> drifted = base.coefficients();
  for (double& c : drifted) c *= 1.08;
  const core::PowerModel truth(base.idle_total() * 1.03, drifted, m.cores);

  // Phase scripts (a process switches suite spec) and DVFS scripts (a
  // core steps to another level), as seeded switch intervals.
  std::vector<std::size_t> spec = in.spec_of;
  std::vector<std::uint64_t> next_switch(kProcesses);
  for (auto& t : next_switch) t = 150 + rng.uniform_index(300);
  std::vector<Hertz> clock(m.cores, m.frequency);
  std::vector<std::uint64_t> next_step(m.cores);
  for (auto& t : next_step) t = 400 + rng.uniform_index(800);
  std::vector<core::FeatureVector> fv(kProcesses);
  for (std::size_t pid = 0; pid < kProcesses; ++pid)
    fv[pid] = in.profiles[pid].features;

  std::vector<sim::Sample> whole;
  whole.reserve(windows + 16);
  sim::FaultInjectorOptions faults;
  faults.drop = 0.002;
  faults.duplicate = 0.002;
  faults.reorder = 0.002;
  faults.wrap = 0.002;
  faults.spike = 0.001;
  faults.zero = 0.001;
  faults.seed = rng.next_u64();
  sim::FaultInjector injector(
      [&whole](const sim::Sample& s) { whole.push_back(s); }, faults);

  constexpr double kWindow = 0.03;
  for (std::uint64_t seq = 0; seq < windows; ++seq) {
    for (std::size_t pid = 0; pid < kProcesses; ++pid)
      if (seq == next_switch[pid]) {
        spec[pid] = (spec[pid] + 1 + rng.uniform_index(kSuite - 1)) % kSuite;
        fv[pid] = analytic_profile(in, pid, spec[pid], 0).features;
        next_switch[pid] = seq + 150 + rng.uniform_index(300);
        ++out.phase_switches;
      }
    for (CoreId c = 0; c < m.cores; ++c)
      if (seq == next_step[c]) {
        Hertz hz = clock[c];
        while (hz == clock[c])
          hz = m.dvfs_levels[rng.uniform_index(m.dvfs_levels.size())];
        clock[c] = hz;
        next_step[c] = seq + 400 + rng.uniform_index(800);
        ++out.dvfs_steps;
      }

    sim::Sample s;
    s.seq = seq;
    s.duration = kWindow;
    s.time = kWindow * static_cast<double>(seq + 1);
    s.core_rates.assign(m.cores, {});
    s.core_frequency = clock;
    s.process_frequency.resize(kProcesses);
    s.occupancy.resize(kProcesses);
    s.process_delta.resize(kProcesses);
    s.process_cpu.resize(kProcesses);
    const double fair =
        static_cast<double>(m.l2.ways) / static_cast<double>(kProcesses / 2);
    for (std::size_t pid = 0; pid < kProcesses; ++pid) {
      const CoreId core = static_cast<CoreId>(pid / 2);
      const workload::WorkloadSpec& ws = suite_spec(spec[pid]);
      const double occ = fair * rng.uniform(0.35, 1.65);
      const double mpa = std::clamp(
          fv[pid].histogram.mpa(occ) * (1.0 + 0.01 * rng.normal()), 0.0, 1.0);
      const double spi = fv[pid].spi_at(mpa) * (m.frequency / clock[core]) *
                         (1.0 + 0.01 * rng.normal());
      const double cpu = kWindow / 2.0;  // two processes per core
      hpc::Counters& d = s.process_delta[pid];
      d.instructions = cpu / spi;
      d.cycles = cpu * clock[core];
      d.l1_refs = ws.mix.l1_rpi * d.instructions;
      d.l2_refs = ws.mix.l2_api * d.instructions;
      d.l2_misses = mpa * d.l2_refs;
      d.branches = ws.mix.branch_pi * d.instructions;
      d.fp_ops = ws.mix.fp_pi * d.instructions;
      s.process_cpu[pid] = cpu;
      s.occupancy[pid] = occ;
      s.process_frequency[pid] = clock[core];
      s.core_rates[core] += hpc::EventRates::from(d, kWindow);
    }
    s.true_power = truth.predict(s.core_rates);
    s.measured_power = s.true_power * (1.0 + 0.01 * rng.normal());
    injector.push(s);
  }
  injector.flush();
  const sim::FaultInjector::Stats& fs = injector.stats();
  out.faults = fs.dropped + fs.duplicated + fs.reordered + fs.wrapped +
               fs.spiked + fs.zeroed;

  // Split every delivered window into its per-die slices, exactly as
  // System::split_sample does: other dies' entries read zero, power
  // and clocks ride on every slice.
  out.windows.reserve(whole.size());
  for (const sim::Sample& w : whole) {
    std::vector<sim::Sample> slices;
    for (DieId d = 0; d < m.dies; ++d) {
      sim::Sample s = w;
      s.die = d;
      for (CoreId c = 0; c < m.cores; ++c)
        if (m.core_to_die[c] != d) s.core_rates[c] = {};
      for (std::size_t pid = 0; pid < kProcesses; ++pid)
        if (m.core_to_die[pid / 2] != d) {
          s.occupancy[pid] = 0.0;
          s.process_delta[pid] = {};
          s.process_cpu[pid] = 0.0;
        }
      slices.push_back(std::move(s));
    }
    out.windows.push_back(std::move(slices));
  }
  return out;
}

}  // namespace perfbench

#include "repro/core/power_model.hpp"

#include <memory>

#include "repro/common/ensure.hpp"
#include "repro/sim/system.hpp"
#include "repro/workload/generator.hpp"
#include "repro/workload/microbench.hpp"

namespace repro::core {

namespace {

/// Append every sample of a run as (total rates across cores, measured
/// power) to the training set under construction.
void append_samples(const sim::RunResult& run, std::vector<double>* rows,
                    std::vector<double>* power) {
  for (const sim::Sample& s : run.samples) {
    hpc::EventRates total;
    for (const hpc::EventRates& r : s.core_rates) total += r;
    const std::array<double, 5> reg = total.regressors();
    rows->insert(rows->end(), reg.begin(), reg.end());
    power->push_back(s.measured_power);
  }
}

/// Run N instances of one workload (one per core) and harvest samples.
void harvest_workload(const sim::MachineConfig& machine,
                      const power::OracleConfig& oracle,
                      const workload::WorkloadSpec& spec, Seconds warmup,
                      Seconds measure, std::uint64_t seed,
                      std::vector<double>* rows, std::vector<double>* power) {
  sim::SystemConfig cfg;
  cfg.machine = machine;
  sim::System system(cfg, oracle, seed);
  for (CoreId c = 0; c < machine.cores; ++c)
    system.add_process(spec.name, c, spec.mix,
                       std::make_unique<workload::StackDistanceGenerator>(
                           spec, machine.l2.sets));
  system.warm_up(warmup);
  append_samples(system.run(measure), rows, power);
}

}  // namespace

PowerModel::PowerModel(Watts idle_total, std::array<double, 5> coefficients,
                       std::uint32_t cores)
    : idle_total_(idle_total), c_(coefficients), cores_(cores) {
  REPRO_ENSURE(cores_ > 0, "power model needs cores");
  REPRO_ENSURE(idle_total_ > 0.0, "idle power must be positive");
}

PowerModel PowerModel::fit(const PowerTrainingSet& data,
                           std::uint32_t cores) {
  REPRO_ENSURE(data.regressors.cols() == 5, "expected 5 regressors");
  const math::Mvlr::Fit f = math::Mvlr::fit(data.regressors, data.power);
  std::array<double, 5> c{};
  for (std::size_t j = 0; j < 5; ++j) c[j] = f.coefficients[j];
  return PowerModel(f.intercept, c, cores);
}

PowerTrainingSet PowerModel::collect(
    const sim::MachineConfig& machine, const power::OracleConfig& oracle,
    const std::vector<std::string>& training_workloads,
    const PowerTrainerOptions& options) {
  machine.validate();
  std::vector<double> rows;
  std::vector<double> power;
  std::uint64_t seed = options.seed;

  // Idle phase (the micro-benchmark's phase 0).
  {
    sim::SystemConfig cfg;
    cfg.machine = machine;
    sim::System system(cfg, oracle, seed++);
    append_samples(system.run(options.run_idle), &rows, &power);
  }

  // SPEC-like training workloads, N instances each.
  for (const std::string& name : training_workloads)
    harvest_workload(machine, oracle, workload::find_spec(name),
                     options.warmup, options.run_per_workload, seed++, &rows,
                     &power);

  // Micro-benchmark phases 1–5 at 8 levels each.
  for (const workload::WorkloadSpec& cell : workload::microbench_all_phases())
    harvest_workload(machine, oracle, cell, options.warmup,
                     options.run_per_microbench, seed++, &rows, &power);

  PowerTrainingSet set;
  const std::size_t n = power.size();
  set.regressors = math::Matrix(n, 5);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < 5; ++c)
      set.regressors(r, c) = rows[r * 5 + c];
  set.power = std::move(power);
  return set;
}

PowerModel PowerModel::train(
    const sim::MachineConfig& machine, const power::OracleConfig& oracle,
    const std::vector<std::string>& training_workloads,
    const PowerTrainerOptions& options) {
  return fit(collect(machine, oracle, training_workloads, options),
             machine.cores);
}

Watts PowerModel::predict(
    std::span<const hpc::EventRates> per_core_rates) const {
  Watts p = idle_total_;
  for (const hpc::EventRates& r : per_core_rates) p += dynamic_power(r);
  return p;
}

Watts PowerModel::dynamic_power(const hpc::EventRates& rates) const {
  const std::array<double, 5> reg = rates.regressors();
  double p = 0.0;
  for (std::size_t j = 0; j < 5; ++j) p += c_[j] * reg[j];
  return p;
}

}  // namespace repro::core

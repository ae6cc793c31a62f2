// The system-level power model (paper §4, Eq. 9–10).
//
// Core power is modeled as idle power plus a linear combination of the
// five HPC event rates (L1RPS, L2RPS, L2MPS, BRPS, FPPS), fitted by
// multi-variable linear regression against measured power. Training
// follows §4.1: run N instances of each training workload (one per
// core, so per-core rates are symmetric), harvest 30 ms samples of
// (total event rates, measured power), add the 6-phase micro-benchmark
// cells and idle samples, and regress. The same fit yields the
// per-core decomposition used for time sharing (P_core = (1/k)·Σ P_i)
// and the combination average of Eq. 10.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "repro/common/units.hpp"
#include "repro/hpc/counters.hpp"
#include "repro/math/matrix.hpp"
#include "repro/math/mvlr.hpp"
#include "repro/power/oracle.hpp"
#include "repro/sim/machine.hpp"
#include "repro/workload/spec.hpp"

namespace repro::core {

/// A labeled power-model training/validation set: one row per 30 ms
/// sample, columns in regressor order (L1RPS, L2RPS, L2MPS, BRPS,
/// FPPS) summed over cores, target = measured processor power.
struct PowerTrainingSet {
  math::Matrix regressors{0, 5};
  std::vector<double> power;
};

struct PowerTrainerOptions {
  Seconds warmup = 0.05;
  Seconds run_per_workload = 0.9;    // per SPEC-like training workload
  Seconds run_per_microbench = 0.24; // per (component, level) cell
  Seconds run_idle = 0.9;
  std::uint64_t seed = 0xb01dULL;
};

class PowerModel {
 public:
  /// Eq. 9 coefficients. `idle_total` is the fitted intercept — the
  /// whole-package idle power; Eq. 9's per-core P_idle is
  /// idle_total / cores (uncore folded in evenly).
  PowerModel(Watts idle_total, std::array<double, 5> coefficients,
             std::uint32_t cores);

  /// Train on an explicit sample set (§4.1 MVLR).
  static PowerModel fit(const PowerTrainingSet& data, std::uint32_t cores);

  /// Full §4.1 pipeline: collect the training set on `machine` with
  /// the suite workloads named in `training_workloads` plus the
  /// micro-benchmark and idle samples, then fit.
  static PowerModel train(const sim::MachineConfig& machine,
                          const power::OracleConfig& oracle,
                          const std::vector<std::string>& training_workloads,
                          const PowerTrainerOptions& options = {});

  /// Collect the training set only (reused by the MVLR-vs-NN bench).
  static PowerTrainingSet collect(
      const sim::MachineConfig& machine, const power::OracleConfig& oracle,
      const std::vector<std::string>& training_workloads,
      const PowerTrainerOptions& options = {});

  /// Processor power for per-core event rates (Eq. 9 summed).
  Watts predict(std::span<const hpc::EventRates> per_core_rates) const;

  /// Dynamic (above-idle) power of one core's event rates.
  Watts dynamic_power(const hpc::EventRates& rates) const;

  Watts idle_total() const { return idle_total_; }
  Watts idle_core() const { return idle_total_ / cores_; }
  const std::array<double, 5>& coefficients() const { return c_; }
  std::uint32_t cores() const { return cores_; }

 private:
  Watts idle_total_;
  std::array<double, 5> c_;
  std::uint32_t cores_;
};

}  // namespace repro::core

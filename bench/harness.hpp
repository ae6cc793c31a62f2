// Shared infrastructure for the paper-reproduction bench binaries.
//
// Every bench binary regenerates one of the paper's tables or figures.
// They share: the three validation platforms (§6.1), cached profiling
// and power-model training (the expensive once-per-machine steps), a
// simulator-backed "measured" runner for arbitrary assignments, and
// random-assignment generation matching the paper's methodology
// ("processes in each assignment are chosen randomly").
//
// Set REPRO_CACHE_DIR to control where profiles/models are cached
// (default: ./repro_cache). Delete the directory to force re-profiling.
#pragma once

#include <string>
#include <vector>

#include "repro/common/rng.hpp"
#include "repro/core/combined.hpp"
#include "repro/core/power_model.hpp"
#include "repro/core/profiler.hpp"
#include "repro/core/serialize.hpp"
#include "repro/sim/system.hpp"

namespace repro::bench {

struct Platform {
  std::string id;  // cache key
  sim::MachineConfig machine;
  power::OracleConfig oracle;
};

Platform server_platform();       // 4-core, 2 dies (Q6600 class)
Platform workstation_platform();  // 2-core (E2220 class)
Platform laptop_platform();       // 2-core, 12-way (Core 2 Duo class)

/// The paper's 8-benchmark main testsuite and the 10-benchmark
/// extension used on the laptop.
const std::vector<std::string>& suite8();
const std::vector<std::string>& suite10();

/// Profiles for `names` on `platform`, cached on disk.
std::vector<core::ProcessProfile> get_profiles(
    const Platform& platform, const std::vector<std::string>& names);

/// Trained Eq. 9 power model for `platform`, cached on disk.
core::PowerModel get_power_model(const Platform& platform);

/// Run an assignment on the simulator and return the full RunResult
/// (the "measured" side of every validation).
sim::RunResult simulate_assignment(
    const Platform& platform, const core::Assignment& assignment,
    const std::vector<core::ProcessProfile>& profiles, Seconds warmup,
    Seconds measure, std::uint64_t seed);

/// Random assignment with `processes` processes spread over the cores
/// listed in `cores` (each core gets ⌈processes/|cores|⌉ or ⌊…⌋,
/// balanced), drawing workloads uniformly with replacement.
core::Assignment random_assignment(Rng& rng, std::uint32_t total_cores,
                                   const std::vector<CoreId>& cores,
                                   std::size_t processes,
                                   std::size_t profile_count);

/// Error accumulator for the avg/max columns of Tables 2–4.
class ErrorAccumulator {
 public:
  void add(double estimated, double measured);
  double avg_pct() const;
  double max_pct() const;
  std::size_t count() const { return errors_.size(); }

 private:
  std::vector<double> errors_;  // |est − meas| / meas, in percent
};

}  // namespace repro::bench

#include "repro/core/partitioning.hpp"

#include <limits>

#include "repro/common/ensure.hpp"

namespace repro::core {

namespace {

ProcessPrediction predict_at_ways(const SolverInput& in, double s) {
  ProcessPrediction p;
  p.effective_size = s;
  p.mpa = in.histogram->mpa(s);
  p.spi = in.spi_at(p.mpa);
  REPRO_ENSURE(p.spi > 0.0, "non-positive SPI under partition");
  p.aps = in.api / p.spi;
  return p;
}

/// Per-process utility of owning `s` ways, higher = better.
double utility(const FeatureVector& fv, std::uint32_t s, std::uint32_t ways,
               PartitionObjective objective) {
  const ProcessPrediction p = predict_at_ways(SolverInput::of(fv), s);
  switch (objective) {
    case PartitionObjective::kThroughput:
      return 1.0 / p.spi;
    case PartitionObjective::kWeightedSpeedup: {
      const double spi_alone =
          fv.spi_at(fv.histogram.mpa(static_cast<double>(ways)));
      return spi_alone / p.spi;
    }
    case PartitionObjective::kMissRate:
      return -(fv.api * p.mpa / p.spi);  // negated: fewer misses better
  }
  REPRO_ENSURE(false, "unknown objective");
  __builtin_unreachable();
}

}  // namespace

std::vector<ProcessPrediction> predict_partitioned(
    std::span<const SolverInput> processes,
    std::span<const std::uint32_t> quotas) {
  REPRO_ENSURE(!processes.empty(), "no processes");
  REPRO_ENSURE(quotas.size() == processes.size(), "quota count mismatch");
  std::vector<ProcessPrediction> out;
  out.reserve(processes.size());
  for (std::size_t i = 0; i < processes.size(); ++i) {
    processes[i].validate();
    REPRO_ENSURE(quotas[i] >= 1, "every process needs at least one way");
    out.push_back(
        predict_at_ways(processes[i], static_cast<double>(quotas[i])));
  }
  return out;
}

std::vector<ProcessPrediction> predict_partitioned(
    const std::vector<FeatureVector>& processes,
    const std::vector<std::uint32_t>& quotas) {
  std::vector<SolverInput> inputs;
  inputs.reserve(processes.size());
  for (const FeatureVector& fv : processes) {
    fv.validate();
    inputs.push_back(SolverInput::of(fv));
  }
  return predict_partitioned(std::span<const SolverInput>(inputs), quotas);
}

PartitionResult optimal_partition(
    const std::vector<FeatureVector>& processes, std::uint32_t ways,
    PartitionObjective objective) {
  const std::size_t k = processes.size();
  REPRO_ENSURE(k >= 1, "no processes");
  REPRO_ENSURE(ways >= k, "need at least one way per process");
  for (const FeatureVector& fv : processes) fv.validate();

  // dp[i][w]: best total utility allocating exactly w ways to the
  // first i processes (each ≥ 1 way). choice[i][w]: ways given to
  // process i−1 in that optimum.
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> dp(
      k + 1, std::vector<double>(ways + 1, kNegInf));
  std::vector<std::vector<std::uint32_t>> choice(
      k + 1, std::vector<std::uint32_t>(ways + 1, 0));
  dp[0][0] = 0.0;

  for (std::size_t i = 1; i <= k; ++i) {
    for (std::uint32_t w = static_cast<std::uint32_t>(i); w <= ways; ++w) {
      for (std::uint32_t give = 1; give <= w - (i - 1); ++give) {
        if (dp[i - 1][w - give] == kNegInf) continue;
        const double value =
            dp[i - 1][w - give] +
            utility(processes[i - 1], give, ways, objective);
        if (value > dp[i][w]) {
          dp[i][w] = value;
          choice[i][w] = give;
        }
      }
    }
  }

  PartitionResult result;
  result.objective_value = dp[k][ways];
  REPRO_ENSURE(result.objective_value != kNegInf, "infeasible partition");
  result.quotas.resize(k);
  std::uint32_t w = ways;
  for (std::size_t i = k; i >= 1; --i) {
    result.quotas[i - 1] = choice[i][w];
    w -= choice[i][w];
  }
  result.predictions = predict_partitioned(processes, result.quotas);
  return result;
}

}  // namespace repro::core

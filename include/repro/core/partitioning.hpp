// Cache way-partitioning analysis.
//
// The paper's performance model descends from Xu et al. [11], which
// used reuse-distance feature vectors to predict the impact of cache
// *partitioning* as well as free-for-all contention. This module keeps
// that capability: given feature vectors, predict each process's
// operating point under an explicit way allocation, and search for the
// optimal allocation by dynamic programming over ways — the classic
// utility-based partitioning formulation. Together with
// sim::SharedCache::set_partition this enables end-to-end validation
// of partitioning decisions on the simulator.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "repro/core/perf_model.hpp"

namespace repro::core {

enum class PartitionObjective {
  kThroughput,       // maximize Σ 1/SPI (instructions per second)
  kWeightedSpeedup,  // maximize Σ SPI_alone / SPI
  kMissRate,         // minimize Σ API·MPA / SPI (misses per second)
};

struct PartitionResult {
  std::vector<std::uint32_t> quotas;  // ways per process, sums to A
  std::vector<ProcessPrediction> predictions;
  double objective_value = 0.0;
};

/// Operating points when process i is confined to quotas[i] ways.
/// Quotas must be ≥ 1 for every process and sum to ≤ the cache ways.
std::vector<ProcessPrediction> predict_partitioned(
    std::span<const SolverInput> processes,
    std::span<const std::uint32_t> quotas);

/// The same over whole feature vectors (validated with their names).
std::vector<ProcessPrediction> predict_partitioned(
    const std::vector<FeatureVector>& processes,
    const std::vector<std::uint32_t>& quotas);

/// Optimal integer allocation of `ways` ways (each process gets ≥ 1)
/// under the given objective, by DP over (process prefix, ways used).
PartitionResult optimal_partition(
    const std::vector<FeatureVector>& processes, std::uint32_t ways,
    PartitionObjective objective = PartitionObjective::kThroughput);

}  // namespace repro::core

#include "repro/workload/microbench.hpp"

#include "repro/common/ensure.hpp"

namespace repro::workload {

WorkloadSpec microbench_spec(MicrobenchComponent component, int level) {
  REPRO_ENSURE(level >= 0 && level < kMicrobenchLevels,
               "level out of range");
  // Intensity steps down from 1.0 by ~11% per level (8 levels), like
  // the paper's per-10 s frequency reduction.
  const double f = 1.0 - 0.11 * static_cast<double>(level);

  WorkloadSpec s;
  // Baseline: minimal, cache-friendly activity.
  s.reuse_weights = {1.0, 0.5};  // shallow reuse → L2 hits
  s.new_line_weight = 0.0;
  s.stream_weight = 0.0;
  s.mix = sim::InstructionMix{.l2_api = 0.002,
                              .l1_rpi = 0.10,
                              .branch_pi = 0.02,
                              .fp_pi = 0.0,
                              .base_cpi = 1.0};

  switch (component) {
    case MicrobenchComponent::kL1:
      s.name = "ub-l1";
      s.mix.l1_rpi = 0.65 * f + 0.05;
      break;
    case MicrobenchComponent::kL2:
      s.name = "ub-l2";
      s.mix.l2_api = 0.05 * f + 0.003;
      s.mix.l1_rpi = 0.45;
      s.mix.base_cpi = 0.7;
      break;
    case MicrobenchComponent::kL2Miss:
      s.name = "ub-l2miss";
      s.mix.l2_api = 0.04 * f + 0.003;
      s.mix.l1_rpi = 0.35;
      s.reuse_weights.clear();
      s.new_line_weight = 1.0;  // every access a compulsory miss
      break;
    case MicrobenchComponent::kBranch:
      s.name = "ub-branch";
      s.mix.branch_pi = 0.50 * f + 0.02;
      break;
    case MicrobenchComponent::kFp:
      s.name = "ub-fp";
      s.mix.fp_pi = 0.70 * f + 0.02;
      break;
  }
  s.name += '-';
  s.name += std::to_string(level);
  s.validate();
  return s;
}

std::vector<WorkloadSpec> microbench_all_phases() {
  std::vector<WorkloadSpec> out;
  for (MicrobenchComponent c :
       {MicrobenchComponent::kL1, MicrobenchComponent::kL2,
        MicrobenchComponent::kL2Miss, MicrobenchComponent::kBranch,
        MicrobenchComponent::kFp})
    for (int level = 0; level < kMicrobenchLevels; ++level)
      out.push_back(microbench_spec(c, level));
  return out;
}

}  // namespace repro::workload

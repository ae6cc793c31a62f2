#include "repro/core/combined.hpp"

#include "repro/common/ensure.hpp"

namespace repro::core {

std::size_t Assignment::process_count() const {
  std::size_t n = 0;
  for (const auto& q : per_core) n += q.size();
  return n;
}

void Assignment::validate(std::uint32_t cores,
                          std::size_t profile_count) const {
  REPRO_ENSURE(per_core.size() == cores, "assignment core count mismatch");
  for (const auto& q : per_core)
    for (std::size_t idx : q)
      REPRO_ENSURE(idx < profile_count, "profile index out of range");
}

Watts process_dynamic_power(const PowerModel& model,
                            const hpc::PerInstructionRates& pf, Spi spi,
                            Mpa l2mpr) {
  REPRO_ENSURE(spi > 0.0, "SPI must be positive");
  const std::array<double, 5>& c = model.coefficients();
  // §5: P1 covers the contention-invariant events; P2 the L2 misses.
  const double p1 =
      (c[0] * pf.l1rpi + c[1] * pf.l2rpi + c[3] * pf.brpi + c[4] * pf.fppi) /
      spi;
  const double p2 = c[2] * pf.l2rpi * l2mpr / spi;
  return p1 + p2;
}

}  // namespace repro::core

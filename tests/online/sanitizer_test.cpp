#include "repro/online/sanitizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "repro/common/ensure.hpp"
#include "repro/common/rng.hpp"

namespace repro::online {
namespace {

constexpr std::array<double hpc::Counters::*, 7> kFields = {
    &hpc::Counters::instructions, &hpc::Counters::cycles,
    &hpc::Counters::l1_refs,      &hpc::Counters::l2_refs,
    &hpc::Counters::l2_misses,    &hpc::Counters::branches,
    &hpc::Counters::fp_ops,
};

/// A plausible single-process window ending at `t` (MPA 0.5, SPI 2e-9).
sim::Sample window(double t) {
  sim::Sample s;
  s.time = t;
  s.duration = 0.03;
  s.core_rates.resize(1);
  s.occupancy.assign(1, 4.0);
  s.process_cpu.assign(1, 0.002);
  s.process_delta.resize(1);
  hpc::Counters& d = s.process_delta[0];
  d.instructions = 1.0e6;
  d.cycles = 2.0e6;
  d.l1_refs = 3.0e5;
  d.l2_refs = 2.0e4;
  d.l2_misses = 1.0e4;
  d.branches = 1.0e5;
  d.fp_ops = 5.0e4;
  return s;
}

SampleSanitizerOptions with_ways() {
  SampleSanitizerOptions o;
  o.ways = 8;
  return o;
}

void expect_identical(const sim::Sample& a, const sim::Sample& b) {
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.duration, b.duration);
  ASSERT_EQ(a.process_delta.size(), b.process_delta.size());
  for (std::size_t p = 0; p < a.process_delta.size(); ++p) {
    for (auto f : kFields)
      EXPECT_EQ(a.process_delta[p].*f, b.process_delta[p].*f);
    EXPECT_EQ(a.process_cpu[p], b.process_cpu[p]);
    EXPECT_EQ(a.occupancy[p], b.occupancy[p]);
  }
}

TEST(SampleSanitizer, CleanWindowsForwardBitIdentical) {
  SampleSanitizer san(with_ways());
  for (int i = 0; i < 10; ++i) {
    const sim::Sample in = window(0.03 * (i + 1));
    sim::Sample out;
    ASSERT_TRUE(san.sanitize(in, &out)) << "window " << i;
    expect_identical(in, out);
  }
  EXPECT_EQ(san.stats().windows, 10u);
  EXPECT_EQ(san.stats().forwarded, 10u);
  EXPECT_EQ(san.stats().repaired, 0u);
  EXPECT_EQ(san.stats().quarantined, 0u);
}

TEST(SampleSanitizer, WrapRepairIsExact) {
  SampleSanitizer san(with_ways());
  sim::Sample in = window(0.03);
  const double original = in.process_delta[0].l2_refs;
  // What a monitor reads after differencing a wrapped 32-bit counter.
  in.process_delta[0].l2_refs -= std::ldexp(1.0, 32);
  ASSERT_LT(in.process_delta[0].l2_refs, 0.0);
  sim::Sample out;
  ASSERT_TRUE(san.sanitize(in, &out));
  EXPECT_EQ(out.process_delta[0].l2_refs, original) << "repair must be exact";
  EXPECT_EQ(san.stats().repaired, 1u);
  EXPECT_EQ(san.stats().forwarded, 1u);
}

TEST(SampleSanitizer, UnrepairableNegativeDeltaIsQuarantined) {
  SampleSanitizer san(with_ways());
  sim::Sample in = window(0.03);
  // No configured width (32 or 48 bits) lifts −2^50 back above zero.
  in.process_delta[0].cycles -= std::ldexp(1.0, 50);
  sim::Sample out;
  EXPECT_FALSE(san.sanitize(in, &out));
  EXPECT_EQ(san.stats().quarantined_implausible, 1u);
}

TEST(SampleSanitizer, DuplicateAndOutOfOrderWindowsAreQuarantined) {
  SampleSanitizer san(with_ways());
  sim::Sample out;
  ASSERT_TRUE(san.sanitize(window(0.06), &out));
  EXPECT_FALSE(san.sanitize(window(0.06), &out)) << "exact duplicate";
  EXPECT_FALSE(san.sanitize(window(0.03), &out)) << "out of order";
  EXPECT_EQ(san.stats().quarantined_order, 2u);
  // The clock gate is against the last *forwarded* window.
  EXPECT_TRUE(san.sanitize(window(0.09), &out));
  EXPECT_EQ(san.stats().forwarded, 2u);
}

TEST(SampleSanitizer, ImplausibleWindowsAreQuarantined) {
  SampleSanitizer san(with_ways());
  sim::Sample out;
  std::uint64_t expected = 0;
  double t = 0.0;
  auto reject = [&](sim::Sample s, const char* why) {
    s.time = (t += 0.03);
    EXPECT_FALSE(san.sanitize(s, &out)) << why;
    EXPECT_EQ(san.stats().quarantined_implausible, ++expected) << why;
  };

  {
    sim::Sample s = window(0.0);
    s.process_delta[0].l2_misses = 2.0 * s.process_delta[0].l2_refs;
    reject(s, "MPA > 1");
  }
  {
    sim::Sample s = window(0.0);
    s.process_delta[0].l2_refs = 2.0 * s.process_delta[0].instructions;
    reject(s, "API > 1");
  }
  {
    sim::Sample s = window(0.0);
    s.process_cpu[0] = std::numeric_limits<double>::quiet_NaN();
    reject(s, "non-finite CPU time");
  }
  {
    sim::Sample s = window(0.0);
    s.process_delta[0].cycles = std::numeric_limits<double>::infinity();
    reject(s, "non-finite counter");
  }
  {
    sim::Sample s = window(0.0);
    s.process_cpu[0] = 10.0 * s.duration;
    reject(s, "CPU time beyond the window");
  }
  {
    sim::Sample s = window(0.0);
    s.occupancy[0] = 9.0;  // ways = 8
    reject(s, "occupancy beyond associativity");
  }
  {
    sim::Sample s = window(0.0);
    s.process_delta[0] = hpc::Counters{};  // zeroed block, CPU time kept
    reject(s, "zeroed counters while scheduled");
  }
  {
    sim::Sample s = window(0.0);
    s.duration = 0.0;
    reject(s, "empty window");
  }
  {
    sim::Sample s = window(0.0);
    s.process_delta[0].l2_refs = 1e15;  // ~3e16 events/s
    reject(s, "counter rate beyond physical bounds");
  }
  EXPECT_EQ(san.stats().forwarded, 0u);
}

TEST(SampleSanitizer, SpikeOutlierIsQuarantinedByTheMadFilter) {
  SampleSanitizer san(with_ways());
  sim::Sample out;
  double t = 0.0;
  for (int i = 0; i < 12; ++i)
    ASSERT_TRUE(san.sanitize(window(t += 0.03), &out));

  // A multiplexing glitch scales every event count down 1000x while the
  // scheduler still accounts the full CPU slice: per-window SPI jumps
  // 1000-fold. Each counter stays individually plausible.
  sim::Sample spike = window(t += 0.03);
  for (auto f : kFields) spike.process_delta[0].*f /= 1000.0;
  EXPECT_FALSE(san.sanitize(spike, &out));
  EXPECT_EQ(san.stats().quarantined_outlier, 1u);

  // The stream recovers immediately.
  EXPECT_TRUE(san.sanitize(window(t += 0.03), &out));
  EXPECT_EQ(san.stats().quarantined, 1u);
}

TEST(SampleSanitizer, SustainedLevelShiftEscapesTheOutlierFilter) {
  SampleSanitizerOptions opts = with_ways();
  opts.outlier_escape = 6;
  SampleSanitizer san(opts);
  sim::Sample out;
  double t = 0.0;
  for (int i = 0; i < 12; ++i)
    ASSERT_TRUE(san.sanitize(window(t += 0.03), &out));

  // The process genuinely slows 1000-fold (a real phase change would be
  // a few-fold and never even flag; this is the worst case). The filter
  // may quarantine at most `outlier_escape - 1` windows before the
  // escape hatch accepts the new regime.
  auto shifted = [&] {
    sim::Sample s = window(t += 0.03);
    for (auto f : kFields) s.process_delta[0].*f /= 1000.0;
    return s;
  };
  int rejected = 0;
  bool accepted = false;
  for (int i = 0; i < 10 && !accepted; ++i) {
    if (san.sanitize(shifted(), &out))
      accepted = true;
    else
      ++rejected;
  }
  EXPECT_TRUE(accepted) << "the filter must never starve a new phase";
  EXPECT_LE(rejected, 5);
  // Once accepted, the new regime is the baseline: no further flags.
  for (int i = 0; i < 8; ++i)
    EXPECT_TRUE(san.sanitize(shifted(), &out)) << "post-shift window " << i;
}

TEST(SampleSanitizer, GenuineFewFoldPhaseChangePassesUntouched) {
  SampleSanitizer san(with_ways());
  sim::Sample out;
  double t = 0.0;
  for (int i = 0; i < 12; ++i)
    ASSERT_TRUE(san.sanitize(window(t += 0.03), &out));
  // gzip → equake scale: MPA halves, SPI triples. Must pass on the
  // first window — phase detection downstream needs to see it.
  for (int i = 0; i < 5; ++i) {
    sim::Sample s = window(t += 0.03);
    s.process_delta[0].l2_misses /= 2.0;
    s.process_cpu[0] *= 3.0;
    EXPECT_TRUE(san.sanitize(s, &out)) << "phase-change window " << i;
  }
  EXPECT_EQ(san.stats().quarantined, 0u);
}

TEST(SampleSanitizer, IdleWindowsPassThrough) {
  SampleSanitizer san(with_ways());
  sim::Sample idle = window(0.03);
  idle.process_delta[0] = hpc::Counters{};
  idle.process_cpu[0] = 0.0;  // truly descheduled: no events, no time
  sim::Sample out;
  EXPECT_TRUE(san.sanitize(idle, &out));
  EXPECT_EQ(san.stats().forwarded, 1u);
}

sim::Sample scaled_window(double t, double factor) {
  sim::Sample s = window(t);
  for (auto f : kFields) s.process_delta[0].*f *= factor;
  return s;
}

TEST(SampleSanitizer, AutoTuneCatchesSpikesTheStaticBoundsAdmit) {
  SampleSanitizerOptions o = with_ways();
  o.auto_tune = true;
  o.tune_prefix = 8;
  SampleSanitizer san(o);
  sim::Sample out;
  for (int i = 0; i < 8; ++i)
    ASSERT_TRUE(san.sanitize(window(0.03 * (i + 1)), &out));
  EXPECT_EQ(san.stats().learned_bounds, 1u);

  // 1000x every counter: far beyond this process's real rate yet far
  // below the static 1e12/s ceiling — only the learned bound sees it.
  EXPECT_FALSE(san.sanitize(scaled_window(0.03 * 9, 1000.0), &out));
  EXPECT_EQ(san.stats().quarantined_learned, 1u);
  EXPECT_EQ(san.stats().quarantined_implausible, 1u);

  // A genuine few-fold phase swing stays admissible (floor ratio 4).
  EXPECT_TRUE(san.sanitize(scaled_window(0.03 * 10, 2.0), &out));
  EXPECT_EQ(san.stats().forwarded, 9u);
}

TEST(SampleSanitizer, AutoTuneOffKeepsStaticParityAndCleanStreamsUntouched) {
  // Off: the same spike sails through the static bounds (that gap is
  // exactly what the learned ceiling exists to close).
  SampleSanitizer off(with_ways());
  sim::Sample out;
  for (int i = 0; i < 8; ++i)
    ASSERT_TRUE(off.sanitize(window(0.03 * (i + 1)), &out));
  EXPECT_TRUE(off.sanitize(scaled_window(0.03 * 9, 1000.0), &out));
  EXPECT_EQ(off.stats().quarantined_learned, 0u);

  // On, clean stream: parity — every window forwards bit-identical.
  SampleSanitizerOptions o = with_ways();
  o.auto_tune = true;
  o.tune_prefix = 8;
  SampleSanitizer on(o);
  for (int i = 0; i < 20; ++i) {
    const sim::Sample in = window(0.03 * (i + 1));
    ASSERT_TRUE(on.sanitize(in, &out)) << "window " << i;
    expect_identical(in, out);
  }
  EXPECT_EQ(on.stats().quarantined, 0u);
  EXPECT_EQ(on.stats().learned_bounds, 1u);
}

TEST(SampleSanitizer, AutoTuneRejectsNonsenseKnobs) {
  SampleSanitizerOptions shallow;
  shallow.auto_tune = true;
  shallow.tune_prefix = 2;
  EXPECT_THROW(SampleSanitizer{shallow}, Error);
  SampleSanitizerOptions loose;
  loose.auto_tune = true;
  loose.tune_floor_ratio = 0.5;
  EXPECT_THROW(SampleSanitizer{loose}, Error);
}

/// The MAD filter as a copy + nth_element median/MAD over each
/// process's arrival-order window — the reference the sanitizer's
/// sorted windows must reproduce verdict for verdict.
class ReferenceMadFilter {
 public:
  explicit ReferenceMadFilter(const SampleSanitizerOptions& o) : o_(o) {}

  std::size_t escapes() const { return escapes_; }

  /// Mirrors the filter for one plausible, in-order window.
  bool outlier(const sim::Sample& s) {
    if (h_.size() < s.process_delta.size()) h_.resize(s.process_delta.size());
    bool flagged = false;
    for (std::size_t pid = 0; pid < s.process_delta.size(); ++pid) {
      const hpc::Counters& d = s.process_delta[pid];
      const double cpu = s.process_cpu[pid];
      if (d.instructions <= 0.0 || d.l2_refs <= 0.0 || cpu <= 0.0) continue;
      const double mpa = d.mpa();
      const double spi = cpu / d.instructions;
      History& h = h_[pid];
      const bool is_outlier = deviant(h.mpa, mpa, o_.outlier_floor_mpa) ||
                              deviant(h.spi, spi, 0.0);
      push(h.mpa, mpa);
      push(h.spi, spi);
      if (is_outlier) {
        if (++h.run >= o_.outlier_escape) {
          h.mpa.assign(1, mpa);
          h.spi.assign(1, spi);
          h.run = 0;
          ++escapes_;
        } else {
          flagged = true;
        }
      } else {
        h.run = 0;
      }
    }
    return flagged;
  }

 private:
  struct History {
    std::vector<double> mpa, spi;
    std::size_t run = 0;
  };

  static double median(std::vector<double> v) {
    const auto mid = static_cast<std::ptrdiff_t>(v.size() / 2);
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    double m = v[static_cast<std::size_t>(mid)];
    if (v.size() % 2 == 0)
      m = 0.5 * (m + *std::max_element(v.begin(), v.begin() + mid));
    return m;
  }

  bool deviant(const std::vector<double>& series, double x,
               double abs_floor) const {
    if (series.size() < o_.outlier_min_history) return false;
    const double med = median(series);
    std::vector<double> dev;
    for (double v : series) dev.push_back(std::fabs(v - med));
    const double mad = median(std::move(dev));
    const double d = std::fabs(x - med);
    return d > o_.outlier_z * 1.4826 * mad &&
           d > o_.outlier_ratio * std::fabs(med) && d > abs_floor;
  }

  void push(std::vector<double>& v, double x) const {
    if (v.size() >= o_.outlier_window) v.erase(v.begin());
    v.push_back(x);
  }

  SampleSanitizerOptions o_;
  std::vector<History> h_;
  std::size_t escapes_ = 0;
};

/// Drives one seeded series through the sanitizer and the reference;
/// every verdict and every stats counter must agree.
void expect_matches_reference(const SampleSanitizerOptions& o,
                              std::uint64_t seed) {
  constexpr std::size_t kProcs = 3;
  // Each level draws its windows from a handful of multipliers, so the
  // windows are full of exactly repeated values (ties in the median and
  // in the deviations); rare level shifts run into the escape hatch.
  constexpr std::array<double, 5> kJitter = {1.0, 1.0, 0.9, 1.1, 1.3};
  SampleSanitizer san(o);
  ReferenceMadFilter ref(o);
  SanitizerStats expected;
  Rng rng(seed);
  std::array<double, kProcs> mpa_level{}, cpu_level{};
  for (std::size_t p = 0; p < kProcs; ++p) {
    mpa_level[p] = rng.uniform(0.005, 0.05);
    cpu_level[p] = rng.uniform(2e-4, 1e-3);
  }
  for (int w = 0; w < 3000; ++w) {
    sim::Sample s = window(0.03 * (w + 1));
    s.core_rates.resize(kProcs);
    s.occupancy.assign(kProcs, 4.0);
    s.process_cpu.assign(kProcs, 0.0);
    s.process_delta.assign(kProcs, s.process_delta[0]);
    for (std::size_t p = 0; p < kProcs; ++p) {
      const double u = rng.uniform();
      if (u < 0.02) {  // level shift: 40x up or down
        mpa_level[p] = std::clamp(
            mpa_level[p] * (rng.uniform() < 0.5 ? 40.0 : 1.0 / 40.0), 1e-4,
            0.9);
        cpu_level[p] = std::clamp(
            cpu_level[p] * (rng.uniform() < 0.5 ? 40.0 : 1.0 / 40.0), 1e-5,
            0.02);
      }
      hpc::Counters& d = s.process_delta[p];
      if (u > 0.97) {  // descheduled: no events, no time
        d = hpc::Counters{};
        continue;
      }
      double mpa = mpa_level[p] * kJitter[rng.uniform_index(5)];
      double cpu = cpu_level[p] * kJitter[rng.uniform_index(5)];
      if (u > 0.94) mpa *= 30.0;  // spikes
      if (u > 0.91 && u <= 0.94) cpu *= 50.0;
      d.l2_misses = std::min(mpa, 1.0) * d.l2_refs;
      s.process_cpu[p] = std::min(cpu, 0.03);
    }
    const bool flagged = ref.outlier(s);
    ++expected.windows;
    if (flagged) {
      ++expected.quarantined;
      ++expected.quarantined_outlier;
    } else {
      ++expected.forwarded;
    }
    sim::Sample out;
    ASSERT_EQ(san.sanitize(s, &out), !flagged) << "window " << w;
  }
  const SanitizerStats& got = san.stats();
  EXPECT_EQ(got.windows, expected.windows);
  EXPECT_EQ(got.forwarded, expected.forwarded);
  EXPECT_EQ(got.repaired, expected.repaired);
  EXPECT_EQ(got.quarantined, expected.quarantined);
  EXPECT_EQ(got.quarantined_order, expected.quarantined_order);
  EXPECT_EQ(got.quarantined_implausible, expected.quarantined_implausible);
  EXPECT_EQ(got.quarantined_outlier, expected.quarantined_outlier);
  EXPECT_EQ(got.quarantined_learned, expected.quarantined_learned);
  EXPECT_EQ(got.learned_bounds, expected.learned_bounds);
  // The series must actually exercise both verdicts and the hatch.
  EXPECT_GT(expected.quarantined_outlier, 0u);
  EXPECT_GT(expected.forwarded, 0u);
  EXPECT_GT(ref.escapes(), 0u);
}

TEST(SampleSanitizer, SortedWindowMatchesReferenceMedianAndMad) {
  for (std::size_t window_len : {8u, 16u, 17u}) {
    // z_only leaves the robust z-score as the only live gate, so the
    // verdicts turn on the exact MAD, not on the ratio and floor gates.
    for (bool z_only : {false, true}) {
      SampleSanitizerOptions o;
      o.outlier_window = window_len;
      // A shift overturns an 8-window median after 4 windows, so the
      // hatch must open by then for the short window to reach it too.
      o.outlier_escape = 4;
      if (z_only) {
        o.outlier_z = 4.0;
        o.outlier_ratio = 0.0;
        o.outlier_floor_mpa = 0.0;
      }
      for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(testing::Message()
                     << "outlier_window " << window_len << ", z_only "
                     << z_only << ", seed " << seed);
        expect_matches_reference(o, seed);
      }
    }
  }
}

TEST(SampleSanitizer, RejectsNonsenseOptions) {
  {
    SampleSanitizerOptions o;
    o.wrap_bits = {};
    EXPECT_THROW(SampleSanitizer{o}, Error);
  }
  {
    SampleSanitizerOptions o;
    o.wrap_bits = {64};
    EXPECT_THROW(SampleSanitizer{o}, Error);
  }
  {
    SampleSanitizerOptions o;
    o.outlier_min_history = 1;
    EXPECT_THROW(SampleSanitizer{o}, Error);
  }
  {
    SampleSanitizerOptions o;
    o.outlier_escape = 0;
    EXPECT_THROW(SampleSanitizer{o}, Error);
  }
}

}  // namespace
}  // namespace repro::online

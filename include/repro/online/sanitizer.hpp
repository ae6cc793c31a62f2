// SampleSanitizer — the hardened pipeline's ingestion filter.
//
// The on-line pipeline (ISSUE 3) must survive the stream a real
// monitoring daemon delivers: wrapped counters, duplicated or
// out-of-order windows, multiplexing scale error, spike readings, and
// zeroed blocks. SampleSanitizer sits in front of SampleStream and
// gives every sim::Sample one of three verdicts:
//
//   repair      a negative counter delta that a 2^32/2^48 wrap explains
//               is repaired exactly (delta + 2^B) — monotonicity repair;
//   quarantine  windows that are implausible (non-finite values, MPA
//               outside [0, 1], API > 1, counter rates beyond physical
//               bounds, CPU time exceeding the window) or that a rolling
//               median-absolute-deviation filter flags as spike outliers
//               are withheld from the stream entirely;
//   forward     everything else passes through bit-identical — a clean
//               stream sees no change whatsoever (the parity guarantee
//               pipeline_test locks in).
//
// The outlier filter is deliberately conservative: a genuine phase
// change moves the per-window MPA/SPI by a few-fold and must pass, so a
// window is only quarantined when it deviates from the rolling median
// by BOTH a large robust z-score and a large ratio, and a run of
// consecutive "outliers" is accepted as a level shift (escape hatch) so
// the filter can never starve a new phase.
#pragma once

#include <cstdint>
#include <vector>

#include "repro/common/units.hpp"
#include "repro/sim/system.hpp"

namespace repro::online {

struct SampleSanitizerOptions {
  /// Counter widths tried (ascending) when repairing a negative delta.
  std::vector<int> wrap_bits = {32, 48};

  // --- Plausibility bounds (violations quarantine the window). ---
  /// Max L2 references per instruction (the paper's API is << 1).
  double max_api = 1.0;
  /// Max L1 references per instruction.
  double max_l1_per_instruction = 8.0;
  /// Any counter advancing faster than this is a broken reading.
  double max_events_per_second = 1e12;
  /// CPU time may exceed the window length by at most this factor
  /// (scheduler accounting jitter).
  double cpu_slack = 1.05;
  /// Shared-cache associativity for the occupancy bound; 0 disables.
  std::uint32_t ways = 0;

  // --- Rolling robust outlier filter (per process, MPA and SPI). ---
  /// Rolling history length per signal.
  std::size_t outlier_window = 16;
  /// No filtering until this much history exists.
  std::size_t outlier_min_history = 8;
  /// Robust z threshold: |x − median| > z · 1.4826 · MAD.
  double outlier_z = 8.0;
  /// ...and the deviation must also exceed ratio × median...
  double outlier_ratio = 16.0;
  /// ...and this absolute floor (in the signal's own units), so noise
  /// around a near-zero median never flags.
  double outlier_floor_mpa = 0.05;
  /// After this many consecutive outlier verdicts the shift is accepted
  /// as genuine and the history resets (phase-change escape hatch).
  std::size_t outlier_escape = 6;

  // --- Auto-tuned plausibility bounds (ISSUE 8 satellite). ---
  /// Learn a per-process event-rate ceiling from the clean forwarded
  /// prefix and tighten the plausibility gate with it: the static
  /// max_events_per_second default is deliberately loose (it must
  /// admit any machine), so a corrupted reading can sit far above a
  /// process's real rate yet still pass. Off by default — the static
  /// bounds alone apply, preserving the clean-stream parity guarantee
  /// for existing configurations.
  bool auto_tune = false;
  /// Clean active windows observed per process before its learned
  /// ceiling engages; until then the static bounds alone apply.
  std::size_t tune_prefix = 24;
  /// Learned ceiling: median + max(tune_k · 1.4826 · MAD,
  /// (tune_floor_ratio − 1) · median) over the prefix rates — robust
  /// to prefix noise, and never tighter than tune_floor_ratio × the
  /// typical rate, so a genuine phase change stays admissible.
  double tune_k = 12.0;
  double tune_floor_ratio = 4.0;
};

struct SanitizerStats {
  std::uint64_t windows = 0;      // sanitize() calls
  std::uint64_t forwarded = 0;    // clean or repaired pass-throughs
  std::uint64_t repaired = 0;     // forwarded after a wrap repair
  std::uint64_t quarantined = 0;  // withheld (sum of the three below)
  std::uint64_t quarantined_order = 0;        // duplicate / out-of-order
  std::uint64_t quarantined_implausible = 0;  // bound violations
  std::uint64_t quarantined_outlier = 0;      // MAD filter
  /// Subset of quarantined_implausible caught only by a learned
  /// (auto-tuned) per-process bound, not a static one.
  std::uint64_t quarantined_learned = 0;
  std::uint64_t learned_bounds = 0;  // per-process ceilings engaged
};

class SampleSanitizer {
 public:
  explicit SampleSanitizer(SampleSanitizerOptions options = {});

  /// Inspect one window. Returns the window to forward — bit-identical
  /// to the input unless a wrap was repaired — or false (and updates
  /// stats) when it is quarantined. `out` is only written on success.
  bool sanitize(const sim::Sample& sample, sim::Sample* out);

  const SanitizerStats& stats() const { return stats_; }
  const SampleSanitizerOptions& options() const { return options_; }

 private:
  /// One rolling signal: the arrival-order window (which value leaves
  /// next) beside the same values in sorted order, from which the
  /// median and the MAD are read as order statistics — no copy, no
  /// partition and no allocation per window.
  struct Window {
    std::vector<double> arrival;
    std::vector<double> sorted;

    std::size_t size() const { return arrival.size(); }
    void push(double x, std::size_t capacity);
    void reset(double x);
    double median() const;
    double mad(double median) const;
  };

  /// Rolling per-process signal history for the MAD filter.
  struct History {
    Window mpa;
    Window spi;
    std::size_t consecutive_outliers = 0;
  };

  /// Per-process auto-tune state: prefix rates, then the ceiling.
  struct Tuner {
    std::vector<double> rates;  // clean active-window event rates
    double bound = 0.0;         // learned ceiling; 0 = not yet engaged
  };

  bool repair_wraps(sim::Sample& s, bool* repaired) const;
  bool plausible(const sim::Sample& s) const;
  bool outlier(const sim::Sample& s);
  bool learned_violation(const sim::Sample& s) const;
  void learn(const sim::Sample& s);

  SampleSanitizerOptions options_;
  SanitizerStats stats_;
  double last_time_ = -1.0;
  bool any_seen_ = false;
  std::vector<History> history_;  // indexed by pid
  std::vector<Tuner> tuners_;     // indexed by pid (auto_tune only)
};

}  // namespace repro::online

#include "repro/online/sanitizer.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "repro/common/ensure.hpp"

namespace repro::online {

namespace {

constexpr std::array<double hpc::Counters::*, 7> kCounterFields = {
    &hpc::Counters::instructions, &hpc::Counters::cycles,
    &hpc::Counters::l1_refs,      &hpc::Counters::l2_refs,
    &hpc::Counters::l2_misses,    &hpc::Counters::branches,
    &hpc::Counters::fp_ops,
};

double median_of(std::vector<double> v) {
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  double m = v[mid];
  if (v.size() % 2 == 0) {
    const double lower =
        *std::max_element(v.begin(),
                          v.begin() + static_cast<std::ptrdiff_t>(mid));
    m = 0.5 * (m + lower);
  }
  return m;
}

/// Robust spread: median absolute deviation about `median`.
double mad_of(const std::vector<double>& v, double median) {
  std::vector<double> dev;
  dev.reserve(v.size());
  for (double x : v) dev.push_back(std::fabs(x - median));
  return median_of(std::move(dev));
}

/// Total event rate across every counter field — the signal the
/// auto-tuner learns a per-process ceiling for.
double event_rate(const hpc::Counters& d, double duration) {
  double total = 0.0;
  for (auto field : kCounterFields) total += d.*field;
  return total / duration;
}

}  // namespace

SampleSanitizer::SampleSanitizer(SampleSanitizerOptions options)
    : options_(std::move(options)) {
  REPRO_ENSURE(!options_.wrap_bits.empty(), "need at least one wrap width");
  for (int bits : options_.wrap_bits)
    REPRO_ENSURE(bits > 0 && bits < 64, "wrap widths must be in (0, 64)");
  REPRO_ENSURE(options_.outlier_window >= options_.outlier_min_history &&
                   options_.outlier_min_history >= 2,
               "outlier filter needs a sane history window");
  REPRO_ENSURE(options_.outlier_escape >= 1, "outlier escape must be >= 1");
  if (options_.auto_tune) {
    REPRO_ENSURE(options_.tune_prefix >= 4,
                 "auto-tune needs a prefix of at least 4 windows");
    REPRO_ENSURE(options_.tune_k > 0.0 && options_.tune_floor_ratio >= 1.0,
                 "auto-tune needs tune_k > 0 and tune_floor_ratio >= 1");
  }
}

void SampleSanitizer::Window::push(double x, std::size_t capacity) {
  if (arrival.capacity() < capacity) {
    arrival.reserve(capacity);
    sorted.reserve(capacity);
  }
  if (arrival.size() >= capacity) {
    // Any element equal to the leaving value is that value: erasing the
    // first of a run of ties leaves the same multiset.
    sorted.erase(std::lower_bound(sorted.begin(), sorted.end(),
                                  arrival.front()));
    arrival.erase(arrival.begin());
  }
  arrival.push_back(x);
  sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), x), x);
}

void SampleSanitizer::Window::reset(double x) {
  arrival.assign(1, x);
  sorted.assign(1, x);
}

double SampleSanitizer::Window::median() const {
  // The same order statistics median_of partitions out of a copy.
  const std::size_t mid = sorted.size() / 2;
  if (sorted.size() % 2 == 0) return 0.5 * (sorted[mid] + sorted[mid - 1]);
  return sorted[mid];
}

double SampleSanitizer::Window::mad(double median) const {
  // |x − median| falls toward `median` from below and rises away from
  // it above, so the deviations form two ascending runs that start at
  // lower_bound(median). Merging them up to the middle yields the same
  // order statistics of the same doubles as median_of over all of them.
  const std::size_t n = sorted.size();
  const std::size_t mid = n / 2;
  std::size_t hi = static_cast<std::size_t>(
      std::lower_bound(sorted.begin(), sorted.end(), median) -
      sorted.begin());
  std::size_t lo = hi;  // the lower run is sorted[0, lo), read downward
  double below = 0.0;   // the (k−1)-th smallest deviation
  double kth = 0.0;     // the k-th smallest deviation
  for (std::size_t k = 0; k <= mid; ++k) {
    below = kth;
    const bool take_lower =
        lo > 0 && (hi == n || std::fabs(sorted[lo - 1] - median) <=
                                  std::fabs(sorted[hi] - median));
    kth = take_lower ? std::fabs(sorted[--lo] - median)
                     : std::fabs(sorted[hi++] - median);
  }
  return n % 2 == 0 ? 0.5 * (kth + below) : kth;
}

bool SampleSanitizer::learned_violation(const sim::Sample& s) const {
  for (std::size_t pid = 0;
       pid < s.process_delta.size() && pid < tuners_.size(); ++pid) {
    const Tuner& tuner = tuners_[pid];
    if (tuner.bound <= 0.0) continue;  // ceiling not engaged yet
    const hpc::Counters& d = s.process_delta[pid];
    if (d.instructions <= 0.0) continue;  // idle windows carry no rate
    if (event_rate(d, s.duration) > tuner.bound) return true;
  }
  return false;
}

void SampleSanitizer::learn(const sim::Sample& s) {
  if (tuners_.size() < s.process_delta.size())
    tuners_.resize(s.process_delta.size());
  for (std::size_t pid = 0; pid < s.process_delta.size(); ++pid) {
    Tuner& tuner = tuners_[pid];
    if (tuner.bound > 0.0) continue;  // already engaged
    const hpc::Counters& d = s.process_delta[pid];
    if (d.instructions <= 0.0) continue;  // learn from active windows only
    tuner.rates.push_back(event_rate(d, s.duration));
    if (tuner.rates.size() < options_.tune_prefix) continue;
    const double med = median_of(tuner.rates);
    const double mad = mad_of(tuner.rates, med);
    // Robust center + the wider of two margins: k·σ̂ absorbs prefix
    // noise, the floor ratio guarantees genuine few-fold phase swings
    // stay admissible even when the prefix was eerily steady. Never
    // looser than the static bound it refines.
    const double margin = std::max(options_.tune_k * 1.4826 * mad,
                                   (options_.tune_floor_ratio - 1.0) * med);
    tuner.bound = std::min(med + margin, options_.max_events_per_second);
    tuner.rates.clear();
    tuner.rates.shrink_to_fit();
    ++stats_.learned_bounds;
  }
}

bool SampleSanitizer::repair_wraps(sim::Sample& s, bool* repaired) const {
  // A monitor that differenced a wrapped 2^B cumulative counter read
  // delta − 2^B; adding 2^B back is exact. Try the narrowest width
  // first; a delta no width can lift to a plausible value is beyond
  // repair and the caller quarantines the window.
  const double max_events =
      options_.max_events_per_second * std::max(s.duration, 0.0);
  for (hpc::Counters& delta : s.process_delta) {
    for (auto field : kCounterFields) {
      double& v = delta.*field;
      if (!(v < 0.0) || !std::isfinite(v)) continue;
      bool fixed = false;
      for (int bits : options_.wrap_bits) {
        const double lifted = v + std::ldexp(1.0, bits);
        if (lifted >= 0.0 && lifted <= max_events) {
          v = lifted;
          fixed = true;
          *repaired = true;
          break;
        }
      }
      if (!fixed) return false;
    }
  }
  return true;
}

bool SampleSanitizer::plausible(const sim::Sample& s) const {
  if (!std::isfinite(s.time) || !std::isfinite(s.duration) ||
      s.duration <= 0.0)
    return false;
  const double max_events = options_.max_events_per_second * s.duration;
  const std::size_t n = s.process_delta.size();
  if (s.process_cpu.size() != n || s.occupancy.size() != n) return false;

  for (std::size_t pid = 0; pid < n; ++pid) {
    const hpc::Counters& d = s.process_delta[pid];
    for (auto field : kCounterFields) {
      const double v = d.*field;
      if (!std::isfinite(v) || v < 0.0 || v > max_events) return false;
    }
    const double cpu = s.process_cpu[pid];
    if (!std::isfinite(cpu) || cpu < 0.0 ||
        cpu > options_.cpu_slack * s.duration)
      return false;
    const double occ = static_cast<double>(s.occupancy[pid]);
    if (!std::isfinite(occ) || occ < 0.0) return false;
    if (options_.ways > 0 && occ > static_cast<double>(options_.ways))
      return false;

    // Cross-counter physics: misses are a subset of references,
    // references and branches/FP ops are bounded per instruction.
    if (d.l2_misses > d.l2_refs) return false;  // MPA > 1
    if (d.instructions > 0.0) {
      if (d.l2_refs > options_.max_api * d.instructions) return false;
      if (d.l1_refs > options_.max_l1_per_instruction * d.instructions)
        return false;
      if (d.branches > d.instructions || d.fp_ops > d.instructions)
        return false;
    } else if (d.l2_refs > 0.0 || d.l1_refs > 0.0 || d.branches > 0.0 ||
               d.fp_ops > 0.0 || cpu > 1e-6 * s.duration) {
      // Events (or scheduled time) without instructions: a zeroed or
      // partially-zeroed counter block.
      return false;
    }
  }
  return true;
}

bool SampleSanitizer::outlier(const sim::Sample& s) {
  if (history_.size() < s.process_delta.size())
    history_.resize(s.process_delta.size());

  bool flagged = false;
  for (std::size_t pid = 0; pid < s.process_delta.size(); ++pid) {
    const hpc::Counters& d = s.process_delta[pid];
    const double cpu = s.process_cpu[pid];
    // Only windows the builder would use feed (and are judged by) the
    // filter; idle windows carry no signal.
    if (d.instructions <= 0.0 || d.l2_refs <= 0.0 || cpu <= 0.0) continue;
    const double mpa = d.mpa();
    const double spi = cpu / d.instructions;

    History& h = history_[pid];
    auto deviant = [&](const Window& series, double x, double abs_floor) {
      if (series.size() < options_.outlier_min_history) return false;
      const double med = series.median();
      const double mad = series.mad(med);
      const double dev = std::fabs(x - med);
      // All three gates must trip: robust z, ratio, absolute floor —
      // so a genuine few-fold phase change always passes.
      return dev > options_.outlier_z * 1.4826 * mad &&
             dev > options_.outlier_ratio * std::fabs(med) &&
             dev > abs_floor;
    };
    const bool is_outlier = deviant(h.mpa, mpa, options_.outlier_floor_mpa) ||
                            deviant(h.spi, spi, 0.0);

    // History tracks the raw signal (outliers included) so a sustained
    // level shift moves the median and passes on its own; the escape
    // hatch below bounds how long that can take.
    h.mpa.push(mpa, options_.outlier_window);
    h.spi.push(spi, options_.outlier_window);

    if (is_outlier) {
      ++h.consecutive_outliers;
      if (h.consecutive_outliers >= options_.outlier_escape) {
        // A run this long is a level shift, not a glitch: accept it and
        // restart the history from the new regime.
        h.mpa.reset(mpa);
        h.spi.reset(spi);
        h.consecutive_outliers = 0;
      } else {
        flagged = true;
      }
    } else {
      h.consecutive_outliers = 0;
    }
  }
  return flagged;
}

bool SampleSanitizer::sanitize(const sim::Sample& sample, sim::Sample* out) {
  ++stats_.windows;

  // Duplicate or out-of-order delivery: the sample clock must advance.
  if (any_seen_ && !(sample.time > last_time_)) {
    ++stats_.quarantined;
    ++stats_.quarantined_order;
    return false;
  }

  sim::Sample repaired_copy;
  const sim::Sample* candidate = &sample;
  bool repaired = false;
  {
    // Negative deltas are repair candidates; repairing works on a copy
    // so a clean window is forwarded bit-identical with no mutation.
    bool needs_repair = false;
    for (const hpc::Counters& d : sample.process_delta)
      for (auto field : kCounterFields)
        if (d.*field < 0.0) needs_repair = true;
    if (needs_repair) {
      repaired_copy = sample;
      if (!repair_wraps(repaired_copy, &repaired)) {
        ++stats_.quarantined;
        ++stats_.quarantined_implausible;
        return false;
      }
      candidate = &repaired_copy;
    }
  }

  if (!plausible(*candidate)) {
    ++stats_.quarantined;
    ++stats_.quarantined_implausible;
    return false;
  }
  // The learned ceiling is a plausibility refinement: it runs after the
  // static bounds (so quarantined_learned counts what ONLY tuning
  // caught) and before the outlier filter (so a rejected window never
  // pollutes the MAD history).
  if (options_.auto_tune && learned_violation(*candidate)) {
    ++stats_.quarantined;
    ++stats_.quarantined_implausible;
    ++stats_.quarantined_learned;
    return false;
  }
  if (outlier(*candidate)) {
    ++stats_.quarantined;
    ++stats_.quarantined_outlier;
    return false;
  }

  any_seen_ = true;
  last_time_ = sample.time;
  ++stats_.forwarded;
  if (repaired) ++stats_.repaired;
  if (options_.auto_tune) learn(*candidate);
  *out = *candidate;
  return true;
}

}  // namespace repro::online

// Deterministic fault injection for the on-line sample stream.
//
// Real HPC streams are ugly in ways the simulator's clean sim::Sample
// windows are not: sampling daemons drop windows under load, deliver
// them twice or out of order, 32/48-bit counters wrap between reads,
// event multiplexing extrapolates counts with large scaling error, and
// occasional readings spike or come back zero. FaultInjector wraps a
// System::SampleCallback and perturbs the stream with exactly those
// fault classes, each drawn independently per window from a seeded
// repro::Rng — the same options and seed always produce the same fault
// pattern, so chaos runs are reproducible and bisectable.
//
// The injector perturbs only the *observation* stream: the simulation
// that produced the samples is untouched, so a run's ground truth
// (RunResult) stays valid as the reference the hardened pipeline is
// judged against (bench_fault_tolerance).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "repro/common/rng.hpp"
#include "repro/sim/system.hpp"

namespace repro::sim {

/// The fault classes a stream can suffer, in stats/reporting order.
enum class FaultClass {
  kDrop,        // window never delivered
  kDuplicate,   // window delivered twice
  kReorder,     // window held back and delivered after its successor
  kWrap,        // a counter delta went through a 2^32/2^48 wrap
  kScaleNoise,  // multiplexing-style per-counter scaling error
  kSpike,       // one counter reading spikes by orders of magnitude
  kZero,        // counter block reads zero while the process ran
};

const char* fault_class_name(FaultClass c);
/// Parse "drop|dup|reorder|wrap|scale|spike|zero" (cmpmodel --faults).
std::optional<FaultClass> parse_fault_class(const std::string& name);

struct FaultInjectorOptions {
  /// Per-window injection probability of each class; 0 disables it.
  double drop = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  double wrap = 0.0;
  double scale_noise = 0.0;
  double spike = 0.0;
  double zero = 0.0;

  /// Counter width for kWrap: the delta loses 2^wrap_bits, exactly
  /// what a monitor computes from a wrapped cumulative counter.
  int wrap_bits = 32;
  /// kScaleNoise multiplies each counter field of one process by an
  /// independent factor in [scale_lo, scale_hi].
  double scale_lo = 0.25;
  double scale_hi = 4.0;
  /// kSpike multiplies one counter field of one process by this.
  double spike_factor = 1e4;

  /// Correlated fault bursts (ISSUE 8 satellite): a seeded two-state
  /// Markov chain layered over the independent per-class draws —
  /// the "sampling daemon wedged for a stretch" failure mode that
  /// independent Bernoulli draws cannot produce. Each window a quiet
  /// stream enters a burst with probability `burst_enter`; a bursting
  /// one exits with `burst_exit` (expected burst length is
  /// 1/burst_exit windows). While bursting, each window additionally
  /// drops with probability `burst_drop`. burst_enter == 0 (the
  /// default) disables the layer and consumes no RNG draws, so the
  /// fault pattern of every existing (seed, options) pair is
  /// bit-identical to the pre-burst injector.
  double burst_enter = 0.0;
  double burst_exit = 0.35;
  double burst_drop = 1.0;

  std::uint64_t seed = 0x5eedULL;

  /// The injection probability of `c` (for table-driven configuration).
  double& rate_of(FaultClass c);
};

class FaultInjector {
 public:
  /// Wrap `downstream` (typically ShardedPipeline::sink()); push() the
  /// raw samples and the downstream sees the perturbed stream.
  FaultInjector(System::SampleCallback downstream,
                FaultInjectorOptions options);

  /// Ingest one clean window; delivers 0, 1, or 2 (possibly corrupted)
  /// windows downstream according to the drawn faults.
  void push(const Sample& sample);

  /// Adapter for System::run.
  System::SampleCallback sink() {
    return [this](const Sample& s) { push(s); };
  }

  /// Deliver a window still held back by a pending reorder (call after
  /// the run ends, like a daemon flushing its queue on shutdown).
  void flush();

  struct Stats {
    std::uint64_t windows_seen = 0;       // pushed into the injector
    std::uint64_t windows_delivered = 0;  // handed downstream
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;
    std::uint64_t wrapped = 0;
    std::uint64_t scaled = 0;
    std::uint64_t spiked = 0;
    std::uint64_t zeroed = 0;
    std::uint64_t bursts = 0;         // burst episodes entered
    std::uint64_t burst_dropped = 0;  // windows lost inside bursts
  };
  const Stats& stats() const { return stats_; }

 private:
  void corrupt_wrap(Sample& s);
  void corrupt_scale(Sample& s);
  void corrupt_spike(Sample& s);
  void corrupt_zero(Sample& s);
  void deliver(const Sample& s);

  System::SampleCallback downstream_;
  FaultInjectorOptions options_;
  Rng rng_;
  std::optional<Sample> held_;  // pending reorder
  bool in_burst_ = false;       // Markov burst state
  Stats stats_;
};

}  // namespace repro::sim

// PipelineShard — one shard of the sharded on-line pipeline (ISSUE 7).
//
// A shard owns the *streaming* half of ingestion for the dies routed
// to it: per-die sanitizers, SampleStreams, profile builders and their
// phase detectors, all under the shard's own mutex. What a shard does
// NOT own is the model: it never touches the ModelEngine. Each
// ingested window is reduced to a WindowBatch — the sanitizer verdict,
// the phase-change count, the revision *candidates* the builders
// emitted, and (optionally) the sanitized window itself — and handed
// to the coordinator through BatchSink::deliver. The coordinator
// (ShardedPipeline) owns the single engine mutation door and the
// globally-ordered event log; see sharded_pipeline.hpp.
//
// Lock order: shard mutex_ → coordinator mutex → engine builder lock.
// deliver() is called with the shard mutex held, so candidate handoff
// is atomic with the window that produced it; the coordinator never
// calls back into a shard while holding its own mutex, which keeps the
// order acyclic. One shard never touches another shard's state — the
// `lock/cross-shard` repro-lint rule keeps this file free of engine
// mutation calls and foreign-mutex acquisitions.
//
// Per-die state is keyed by the window's die tag, not by the shard, so
// a shard that owns several dies (fewer shards than producers) keeps
// their sanitizer histories and stream window counters exactly as
// separate as a shard-per-die deployment would — which is what makes
// the merged event log independent of the shard count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "repro/common/mutex.hpp"
#include "repro/common/thread_annotations.hpp"
#include "repro/common/units.hpp"
#include "repro/online/profile_builder.hpp"
#include "repro/online/sample_stream.hpp"
#include "repro/online/sanitizer.hpp"
#include "repro/sim/system.hpp"

namespace repro::online {

/// What the shard's sanitizer decided about one window. Mirrors the
/// SanitizerStats counter taxonomy so the coordinator can aggregate
/// health counters without touching shard state.
enum class WindowVerdict {
  kForwarded,               // clean, entered the stream untouched
  kRepaired,                // forwarded after a counter-wrap repair
  kQuarantinedOrder,        // duplicate / out-of-order delivery
  kQuarantinedImplausible,  // failed physics or beyond repair
  kQuarantinedOutlier,      // robust MPA/SPI outlier
};

const char* to_string(WindowVerdict verdict);

inline bool forwarded(WindowVerdict v) {
  return v == WindowVerdict::kForwarded || v == WindowVerdict::kRepaired;
}

/// One profile-revision candidate a builder emitted inside a window.
/// `slot` is the coordinator's monitor-registration index — the
/// deterministic tie-break for candidates of the same window.
struct ShardCandidate {
  std::size_t slot = 0;
  Seconds time = 0.0;
  ProfileRevision revision;
};

/// Everything one ingested window produced, in one message: the
/// shard→coordinator handoff unit. Batches from one die arrive at the
/// coordinator in strictly increasing `seq` order (the shard processes
/// a die's windows sequentially under its mutex).
struct WindowBatch {
  DieId die = 0;            // routing lane (the window's die tag)
  std::uint64_t seq = 0;    // the window's sequence number
  Seconds time = 0.0;       // window end
  WindowVerdict verdict = WindowVerdict::kForwarded;
  std::uint64_t phase_changes = 0;  // confirmed by builders, this window
  /// DVFS steps the builders absorbed by rescaling this window — the
  /// counter-signal proving a clock change was not booked as a phase.
  std::uint64_t frequency_steps = 0;
  std::vector<ShardCandidate> candidates;
  /// The sanitized window, engaged when the shard was told to capture
  /// forwarded windows (the coordinator's power refitter consumes
  /// them); never engaged for quarantined windows.
  std::optional<sim::Sample> window;
};

/// One quarantined window retained for post-mortem forensics
/// (`cmpmodel watch --dump-bad`): the *raw* rejected window plus the
/// sanitizer's verdict, in a bounded per-shard ring.
struct QuarantineRecord {
  DieId die = 0;
  std::uint64_t seq = 0;
  Seconds time = 0.0;
  WindowVerdict verdict = WindowVerdict::kQuarantinedImplausible;
  sim::Sample window;
};

/// The shard's one-way door to the coordinator. Called with the
/// originating shard's mutex held (see the lock order above).
class BatchSink {
 public:
  virtual ~BatchSink() = default;
  virtual void deliver(WindowBatch batch) = 0;
};

struct PipelineShardOptions {
  /// Engage a per-die SampleSanitizer in front of each stream.
  bool harden = true;
  SampleSanitizerOptions sanitizer{};
  /// Quarantined windows retained per shard for forensics; older
  /// records are evicted. 0 disables retention.
  std::size_t quarantine_capacity = 32;
  /// Copy each forwarded (sanitized) window into its batch — the
  /// coordinator needs them only when power refitting is on.
  bool capture_forwarded = false;
};

class PipelineShard {
 public:
  PipelineShard(std::size_t index, BatchSink& sink,
                PipelineShardOptions options);

  std::size_t index() const { return index_; }

  /// Register builder `slot` (the coordinator's monitor index) for
  /// process `pid` on die `die`. The shard takes ownership of the
  /// builder; revisions it emits surface as batch candidates.
  void attach(DieId die, std::size_t slot, ProcessId pid,
              std::unique_ptr<ProfileBuilder> builder);

  /// Ingest one window routed to lane `die`: sanitize, stream to this
  /// die's builders, then deliver the WindowBatch to the coordinator —
  /// all under the shard mutex, so per-die processing is sequential
  /// and batch handoff is atomic with the window.
  void ingest(DieId die, const sim::Sample& sample);

  /// Flush builder `slot`'s current phase (the finish() path). The
  /// revision, if any, is returned to the caller instead of batched —
  /// there is no window to batch it with.
  std::optional<ProfileRevision> flush_builder(std::size_t slot);

  /// Copy of the forensics ring, oldest first.
  std::vector<QuarantineRecord> quarantined() const;

 private:
  struct BuilderSlot {
    std::size_t slot = 0;
    std::unique_ptr<ProfileBuilder> builder;
  };

  /// Per-die streaming state. Keyed by die so sanitizer histories and
  /// stream window counts depend only on the die's own windows, never
  /// on which shard hosts it.
  struct DieState {
    SampleStream stream;
    std::optional<SampleSanitizer> sanitizer;  // engaged when harden
    std::vector<std::unique_ptr<BuilderSlot>> builders;
  };

  DieState& state_of(DieId die) REPRO_REQUIRES(mutex_);
  std::uint64_t phase_total(const DieState& state) const
      REPRO_REQUIRES(mutex_);
  std::uint64_t frequency_step_total(const DieState& state) const
      REPRO_REQUIRES(mutex_);

  const std::size_t index_;
  BatchSink& sink_;
  const PipelineShardOptions options_;

  /// The shard's own lock — first in the shard → coordinator → engine
  /// order. Guards every die's streaming state and the forensics ring;
  /// held across deliver() so batches leave in ingest order.
  mutable common::Mutex mutex_{common::LockRank::kShard};
  std::map<DieId, DieState> dies_ REPRO_GUARDED_BY(mutex_);
  std::deque<QuarantineRecord> quarantine_ REPRO_GUARDED_BY(mutex_);
  /// Batch under construction, visible to the stream sinks while
  /// ingest() runs a stream push.
  WindowBatch* current_ REPRO_GUARDED_BY(mutex_) = nullptr;
};

}  // namespace repro::online

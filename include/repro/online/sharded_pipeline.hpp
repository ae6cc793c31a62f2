// ShardedPipeline — the on-line pipeline.
//
//   die-tagged windows ──► [RingSet fan-in ──► shard worker]  × S
//                                      │  per-die sanitize/stream/build
//                                      ▼  (PipelineShard, own mutex)
//                        WindowBatch{seq, die, verdict, candidates}
//                                      │  BatchSink::deliver
//                                      ▼
//                     coordinator: watermark merge on (seq, die)
//                                      │  single engine mutation door
//                                      ▼
//             ModelEngine::try_apply → re-solve → unified event log
//
// Wire `sink()` as System::run's sample callback and the model tracks
// the running workload: every confirmed phase change or periodic refit
// flows through as a profile revision, invalidates exactly that
// process's memoized artifacts, and re-prices the current co-schedule
// warm-started from the previous equilibrium (1–2 Newton iterations
// seeded from the previous S_i) instead of from scratch. The events()
// log is the per-phase SPI/power trace the tools and examples report.
//
// The *streaming* half (sanitizer, phase detector, profile builders)
// is split across per-die shards that run concurrently; the *model*
// half is one coordinator owning the one serialized path into
// ModelEngine::try_apply and the one globally ordered event log.
//
// Determinism: each shard hands the coordinator WindowBatches in its
// dies' ingest order; the coordinator buffers them keyed on
// (seq, die) and releases whole same-seq groups once every producer
// lane has delivered a window with seq >= that group's (a watermark
// merge). Within a group, lanes release in ascending die order. The
// merged event log is therefore a pure function of the per-lane window
// sequences — independent of the shard count and of thread
// interleaving. Late or duplicate seqs (fault-injected streams) bypass
// the merge and process immediately; their per-window effects (the
// sanitizer quarantines them) don't depend on merge order.
//
// Lock order (DESIGN 5.7, checked by LockRank): shard → coordinator →
// engine builder lock. deliver() runs with the calling shard's mutex
// held and takes mutex_; the coordinator never calls into a shard
// while holding mutex_ (monitor/finish/quarantined talk to shards
// unlocked), so the order is acyclic. ring_mutex (parking) stays leaf.
//
// The defaults, shards = producers = 1, are the single-stream
// pipeline: one lane, one shard, every window released as soon as it
// is delivered. Call monitor(pid, /*die=*/0, ...) and ignore die tags.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "repro/common/mutex.hpp"
#include "repro/common/ring_set.hpp"
#include "repro/common/thread_annotations.hpp"
#include "repro/engine/model_engine.hpp"
#include "repro/online/events.hpp"
#include "repro/online/journal.hpp"
#include "repro/online/power_refitter.hpp"
#include "repro/online/profile_builder.hpp"
#include "repro/online/sanitizer.hpp"
#include "repro/online/shard.hpp"

namespace repro::online {

/// What push() does when an ingestion ring is full.
enum class Backpressure {
  /// Wait until the shard worker frees a slot: no window is ever
  /// lost, but a stalled worker back-propagates into the producer.
  kBlock,
};

/// Fault-path observability: everything the hardened pipeline dropped,
/// repaired, or refused, surfaced through snapshot() and
/// `cmpmodel watch`. All counters are monotonic over a pipeline's life.
struct PipelineHealth {
  std::uint64_t windows_seen = 0;         // raw windows that entered ingest
  std::uint64_t windows_forwarded = 0;    // passed sanitization
  std::uint64_t windows_repaired = 0;     // forwarded after a wrap repair
  std::uint64_t windows_quarantined = 0;  // withheld from the stream
  std::uint64_t windows_dropped = 0;      // lost to a failed shard
  std::uint64_t revisions_rejected = 0;   // failed validation/quality gate
  std::uint64_t degraded_resolves = 0;    // re-solves served last-good
  std::uint64_t history_evicted = 0;      // PipelineEvents aged out

  // Durability + fail-stop shards.
  std::uint64_t shards_failed = 0;     // ring-mode shards stopped by an error
  std::uint64_t recovery_truncated_frames = 0;  // torn/corrupt tail dropped
  std::uint64_t journal_write_failures = 0;  // journal/checkpoint I/O errors
};

/// Crash-safety knobs (ISSUE 8): where durable state lives and how
/// eagerly it reaches stable storage. Empty paths disable the
/// corresponding mechanism. When `recover` is set the constructor runs
/// full recovery — newest valid checkpoint, then journal replay
/// through the one try_apply door — against the engine BEFORE any
/// worker starts; the engine must be freshly constructed (no
/// registrations) for the recovered state to be exact.
struct DurabilityOptions {
  /// Append-only event journal; every applied revision is framed,
  /// checksummed, and appended here.
  std::string journal_path;
  JournalOptions journal{};
  /// Atomic engine checkpoints (temp-file + rename).
  std::string checkpoint_path;
  /// Take a checkpoint every N state-changing events (applied profile
  /// and power revisions), with or without a journal; 0 = only on
  /// demand (ShardedPipeline::checkpoint()).
  std::size_t checkpoint_every = 0;
  /// Run recovery in the constructor. Off: start fresh — an existing
  /// journal is truncated, not replayed.
  bool recover = true;
};

struct ShardedPipelineOptions {
  /// Shard count. Lanes are routed die % shards; more shards than
  /// producer lanes is clamped (an empty shard can do no work).
  std::size_t shards = 1;
  /// Producer lanes: how many distinct Sample::die tags feed push().
  /// 1 (the default) ignores the tag entirely — every window routes to
  /// lane 0, the single-stream mode.
  std::size_t producers = 1;

  /// Per-process builder configuration; `ways` is filled in from the
  /// engine's machine when left 0.
  ProfileBuilderOptions builder{};
  /// Fault tolerance (ISSUE 3). On: a per-die SampleSanitizer screens
  /// every window before the stream, revisions are gated on quality,
  /// and a failed re-solve degrades to the last-good prediction
  /// instead of throwing out of push(). Off: the pre-hardening
  /// pipeline — the chaos bench's control arm, and bit-identical on
  /// clean streams.
  bool harden = true;
  /// Sanitizer tuning; `ways` is filled in from the engine when 0.
  SampleSanitizerOptions sanitizer{};
  /// Reject a revision whose Eq. 3 fit has a relative RMS residual
  /// above this and keep the last-good profile; 0 disables the gate.
  double max_fit_rms = 0.75;
  /// events() ring capacity — the oldest PipelineEvent is evicted
  /// beyond it (snapshot() counters stay monotonic). 0 = unbounded.
  std::size_t history_capacity = 4096;
  /// On-line power refits (ISSUE 5). When enabled AND the engine was
  /// built with a power model, every sanitized ground-truth window
  /// also feeds a PowerRefitter; accepted candidates install through
  /// ModelEngine::try_apply. Disabled (the default), the engine's
  /// power predictions are untouched. Power is measured at the
  /// package, not per die: the coordinator re-assembles the
  /// machine-wide window from a complete all-forwarded slice group
  /// before feeding the refitter.
  PowerRefitOptions power{};

  /// Phase-coincidence coalescing (ISSUE 7 satellite): when several
  /// same-seq lanes revise in one merge group, apply every revision
  /// but re-solve once, on the last. Off (the default) every applied
  /// revision re-solves.
  bool coalesce_resolves = false;
  /// Quarantined windows retained per shard for forensics
  /// (`cmpmodel watch --dump-bad`); 0 disables retention.
  std::size_t quarantine_capacity = 32;

  /// true: push() ingests synchronously on the caller's thread —
  /// the right choice for deterministic replay. false: push() enqueues
  /// on the producer lane's SPSC ring and the owning shard's worker
  /// thread ingests.
  bool inline_ingest = true;
  /// Per-lane ring capacity in windows (rounded up to a power of two)
  /// when inline_ingest is false.
  std::size_t ring_capacity = 1024;
  Backpressure backpressure = Backpressure::kBlock;

  /// Crash-safe durability: journal + checkpoints + replay recovery.
  DurabilityOptions durability{};
};

/// The coordinator's monotonic counters.
struct PipelineStats {
  std::uint64_t windows = 0;            // sample windows ingested (raw)
  std::uint64_t revisions = 0;          // profile revisions applied
  std::uint64_t resolves = 0;           // successful equilibrium re-solves
  std::uint64_t coalesced_resolves = 0;  // re-solves saved by coalescing
  std::uint64_t solver_iterations = 0;  // summed over re-solves
  std::uint64_t solver_fallbacks = 0;   // dies re-solved by bisection
  std::uint64_t phase_changes = 0;      // confirmed across builders
  std::uint64_t frequency_steps = 0;    // DVFS steps absorbed by rescaling
  std::uint64_t power_revisions = 0;    // power refits applied
  std::uint64_t power_rejected = 0;     // refit attempts gated/refused
  std::uint64_t journaled_events = 0;   // events durably appended
  std::uint64_t checkpoints = 0;        // checkpoints published
  PipelineHealth health;                // fault-path counters
};

/// One consistent, locked copy of everything an observer needs: the
/// counters, the sanitizers' verdicts, the most recent re-solved
/// prediction, and the event cursor delimiting what events_since()
/// has yet to return — taken in one critical section, so the fields
/// can never be torn against each other.
struct PipelineSnapshot {
  PipelineStats stats;
  /// Aggregated verdict counters across every per-die sanitizer;
  /// zeros when harden is off.
  SanitizerStats sanitizer;
  /// Most recent re-solved prediction, if any.
  std::optional<engine::SystemPrediction> latest;
  /// One past the newest event: events_since(next_cursor) returns
  /// nothing until a newer event lands.
  EventCursor next_cursor = 0;
};

class ShardedPipeline : private BatchSink {
 public:
  ShardedPipeline(engine::ModelEngine& engine,
                  ShardedPipelineOptions options = {});
  ~ShardedPipeline() override;

  /// Monitor a process already registered with the engine, on producer
  /// lane `die` (0 when producers is 1): its current profile seeds the
  /// builder's baseline and revisions flow to try_apply(handle).
  void monitor(ProcessId pid, DieId die, engine::ProcessHandle handle);

  /// Monitor a process the engine has never seen — the cold-start
  /// path. The first emitted revision registers it; until then it has
  /// no handle and any active query is not re-solved.
  void monitor(ProcessId pid, DieId die, std::string name);

  /// Handle of a monitored process, once known.
  std::optional<engine::ProcessHandle> handle_of(ProcessId pid) const;

  /// Co-schedule to re-price after every revision. Until set, revisions
  /// still update the engine registry but nothing is solved.
  void set_query(engine::CoScheduleQuery query);

  /// Ingest one window. Its Sample::die tag picks the producer lane
  /// (ignored when producers is 1); at most one thread may push a
  /// given lane's windows (the per-lane ring is SPSC).
  void push(const sim::Sample& sample);

  /// Convenience adapter for System::run.
  sim::System::SampleCallback sink() {
    return [this](const sim::Sample& s) { push(s); };
  }

  /// Wait (ring mode) until every window pushed so far has been
  /// ingested, flush merge groups still waiting on the watermark
  /// (an idle lane holds the frontier back), then flush every
  /// builder's current phase and re-solve once more. In ring mode a
  /// failed shard is skipped and, once the healthy shards' work and
  /// the journal sync are done, the lowest-indexed failed shard's
  /// error is rethrown — the error inline mode throws from push().
  void finish();

  /// Unified event log, in global stream order — the most recent
  /// history_capacity entries (older events evicted).
  std::deque<PipelineEvent> events() const;

  /// Events with seq >= `since` — the eviction-proof incremental
  /// cursor for live watchers. Events that aged out of the ring before
  /// a poll are gone; seqs never renumber, so the cursor stays valid
  /// regardless. Profile and power events share the one seq space, so
  /// a single cursor observes both in their true interleaving.
  std::vector<PipelineEvent> events_since(EventCursor since) const;

  PipelineSnapshot snapshot() const;

  /// Every shard's quarantine forensics ring, merged and ordered on
  /// (seq, die) — the `cmpmodel watch --dump-bad` payload.
  std::vector<QuarantineRecord> quarantined() const;

  /// Publish an engine checkpoint now (durability.checkpoint_path must
  /// be set). Returns false — with the failure counted in
  /// PipelineHealth::journal_write_failures — when the write fails;
  /// the previous checkpoint, if any, is left intact either way.
  bool checkpoint();

  /// What construction-time recovery found (default-initialized when
  /// durability was off or recover was false).
  const RecoveryReport& recovery() const { return recovery_; }

  const engine::ModelEngine& engine() const { return engine_; }
  std::size_t shard_count() const { return shards_.size(); }

 private:
  /// One monitored process, indexed by registration order — the slot
  /// number candidates carry back from the shards.
  struct Slot {
    ProcessId pid = 0;
    DieId lane = 0;
    std::size_t shard = 0;
    std::string name;
    std::optional<engine::ProcessHandle> handle;
  };

  /// Ring-mode state, one per shard: a RingSet with one SPSC ring per
  /// producer lane routed to the shard, drained by one worker thread.
  /// ring_mutex + the condvars exist only for parking (worker on
  /// empty, kBlock producer / drain waiter on full) and for the
  /// fail-stop handoff; the wakeup handshake is the two-fence protocol
  /// of DESIGN 5.6, unchanged. ring_mutex is leaf-level: nothing is
  /// called while holding it.
  struct Ingress {
    std::unique_ptr<common::RingSet<sim::Sample>> rings
        REPRO_CONST_AFTER_INIT;
    std::thread worker;
    std::atomic<bool> worker_parked{false};
    std::atomic<std::uint64_t> drain_waiters{0};
    std::atomic<std::uint64_t> enqueued{0};
    std::atomic<std::uint64_t> drained{0};
    mutable common::Mutex ring_mutex{common::LockRank::kIngressRing};
    common::CondVar ring_cv;   // worker parks here (rings empty)
    common::CondVar drain_cv;  // kBlock producer / drain waiters park here

    // Fail-stop (DESIGN 5.8): set once, never cleared. The worker
    // exits, pushes count as dropped, waiters fall through.
    std::atomic<bool> failed{false};
    std::exception_ptr error REPRO_GUARDED_BY(ring_mutex);
  };

  void monitor_slot(ProcessId pid, DieId die, std::string name,
                    std::optional<engine::ProcessHandle> handle,
                    std::unique_ptr<ProfileBuilder> builder);
  void enqueue(DieId lane, const sim::Sample& sample);
  void worker_loop(std::size_t shard);
  void drain_rings();
  /// Stop a ring-mode shard for good: keep its first error, set
  /// failed, wake its worker and every waiter. Takes only the shard's
  /// leaf ring_mutex, so the coordinator may call it under mutex_.
  void fail_shard(std::size_t shard, std::exception_ptr error);
  bool shard_failed(std::size_t shard) const;

  /// BatchSink: called by a shard with that shard's mutex held.
  void deliver(WindowBatch batch) override;
  void release_ready_locked() REPRO_REQUIRES(mutex_);
  /// Release buffered groups with seq <= `frontier` (every group when
  /// nullopt), in (seq, die) order.
  void release_groups_locked(std::optional<std::uint64_t> frontier)
      REPRO_REQUIRES(mutex_);
  void process_group_locked(std::vector<WindowBatch> group)
      REPRO_REQUIRES(mutex_);
  /// Apply one revision candidate through the engine gates. Returns
  /// the event to record, or nullopt when the revision was rejected
  /// (already counted). Solves the active query when `solve`.
  std::optional<RevisionEvent> apply_candidate_locked(
      Slot& slot, ProfileRevision revision, Seconds time, bool solve)
      REPRO_REQUIRES(mutex_);
  /// Re-solve the active query, updating `event`. Returns whether a
  /// solve was attempted (query set, every slot registered).
  bool solve_query_locked(RevisionEvent& event) REPRO_REQUIRES(mutex_);
  void refit_group_locked(const std::vector<WindowBatch>& group)
      REPRO_REQUIRES(mutex_);
  void refit_power_locked(const sim::Sample& sample)
      REPRO_REQUIRES(mutex_);
  void record_event_locked(PipelineEvent event) REPRO_REQUIRES(mutex_);
  /// Append one just-recorded state-changing event (a profile event or
  /// an applied power event) to the journal. A write failure latches:
  /// it is counted, journaling disables, and the pipeline runs on.
  void journal_event_locked(const PipelineEvent& event)
      REPRO_REQUIRES(mutex_);
  /// Count one journal write failure and disable journaling for good.
  void latch_journal_failure();
  /// Dedicated journal-writer thread body (async policies): pops
  /// records in seq order, encodes, frames, appends, applies the
  /// fsync cadence — all off the coordinator lock.
  void journal_loop();
  /// Wait until the writer has drained its queue, then fsync the tail.
  void flush_journal();
  bool checkpoint_locked() REPRO_REQUIRES(mutex_);
  PipelineStats stats_locked() const REPRO_REQUIRES(mutex_);
  std::vector<double> warm_seeds_locked() const REPRO_REQUIRES(mutex_);

  engine::ModelEngine& engine_;
  ShardedPipelineOptions options_ REPRO_CONST_AFTER_INIT;

  /// Routing tables, immutable after construction: lane → owning
  /// shard, lane → ring index within that shard's RingSet. shards_'s
  /// pointers are likewise fixed; each shard locks itself.
  std::vector<std::size_t> lane_shard_ REPRO_CONST_AFTER_INIT;
  std::vector<std::size_t> lane_ring_ REPRO_CONST_AFTER_INIT;
  std::vector<std::unique_ptr<PipelineShard>> shards_ REPRO_CONST_AFTER_INIT;

  /// The coordinator lock — the model half's single door. Guards the
  /// merge buffer, the slot table, the event log, every counter, the
  /// query/prediction state, and (transitively, via the lock order)
  /// all engine mutation: try_apply is only ever called with mutex_
  /// held, which is what serializes revisions from concurrent shards.
  /// Its rank puts it after every shard lock and before the engine
  /// builder, journal and ring locks it reaches while applying.
  mutable common::Mutex mutex_{common::LockRank::kCoordinator};
  std::vector<std::unique_ptr<Slot>> slots_ REPRO_GUARDED_BY(mutex_);
  std::optional<engine::CoScheduleQuery> query_ REPRO_GUARDED_BY(mutex_);
  std::optional<engine::SystemPrediction> latest_ REPRO_GUARDED_BY(mutex_);
  std::optional<PowerRefitter> refitter_ REPRO_GUARDED_BY(mutex_);
  std::deque<PipelineEvent> events_ REPRO_GUARDED_BY(mutex_);
  std::uint64_t next_seq_ REPRO_GUARDED_BY(mutex_) = 0;

  /// Watermark merge state: batches buffered on (window seq, lane)
  /// and the newest seq each lane has delivered. Frontier = min over
  /// lanes; groups with seq <= frontier release.
  std::map<std::pair<std::uint64_t, DieId>, WindowBatch> pending_
      REPRO_GUARDED_BY(mutex_);
  std::vector<std::optional<std::uint64_t>> delivered_
      REPRO_GUARDED_BY(mutex_);

  // Monotonic counters (names match the old pipeline's).
  std::uint64_t windows_seen_ REPRO_GUARDED_BY(mutex_) = 0;
  std::uint64_t windows_forwarded_ REPRO_GUARDED_BY(mutex_) = 0;
  std::uint64_t windows_repaired_ REPRO_GUARDED_BY(mutex_) = 0;
  std::uint64_t q_order_ REPRO_GUARDED_BY(mutex_) = 0;
  std::uint64_t q_implausible_ REPRO_GUARDED_BY(mutex_) = 0;
  std::uint64_t q_outlier_ REPRO_GUARDED_BY(mutex_) = 0;
  std::uint64_t phase_changes_ REPRO_GUARDED_BY(mutex_) = 0;
  std::uint64_t frequency_steps_ REPRO_GUARDED_BY(mutex_) = 0;
  std::uint64_t revisions_ REPRO_GUARDED_BY(mutex_) = 0;
  std::uint64_t resolves_ REPRO_GUARDED_BY(mutex_) = 0;
  std::uint64_t coalesced_resolves_ REPRO_GUARDED_BY(mutex_) = 0;
  std::uint64_t solver_iterations_ REPRO_GUARDED_BY(mutex_) = 0;
  std::uint64_t solver_fallbacks_ REPRO_GUARDED_BY(mutex_) = 0;
  std::uint64_t revisions_rejected_ REPRO_GUARDED_BY(mutex_) = 0;
  std::uint64_t degraded_resolves_ REPRO_GUARDED_BY(mutex_) = 0;
  std::uint64_t power_revisions_ REPRO_GUARDED_BY(mutex_) = 0;
  std::uint64_t power_rejected_ REPRO_GUARDED_BY(mutex_) = 0;
  std::uint64_t history_evicted_ REPRO_GUARDED_BY(mutex_) = 0;

  /// Durability state (ISSUE 8). record_event_locked is the one
  /// journaling point, so frame order IS event-log order:
  /// journaled_events_ counts synchronously (under mutex_) as each
  /// event is handed to the journal, while the encode + append + fsync
  /// work runs on journal_thread_ for the every_n/off fsync policies
  /// (~25 us/event of formatting that would otherwise serialize every
  /// shard behind the coordinator lock). kOnRevision appends inline
  /// under mutex_ — its zero-loss contract needs the record durable
  /// before the apply returns. recovery_ is written in the constructor
  /// and immutable after.
  RecoveryReport recovery_ REPRO_CONST_AFTER_INIT;
  /// Sync mode: accessed under mutex_. Async mode: owned by
  /// journal_loop after construction; flush_journal touches it only
  /// once the writer is provably idle (handoff via journal_mutex_).
  JournalWriter journal_ REPRO_THREAD_CONFINED("journal writer");
  std::atomic<bool> journal_enabled_{false};
  std::atomic<std::uint64_t> journal_write_failures_{0};
  std::uint64_t journaled_events_ REPRO_GUARDED_BY(mutex_) = 0;
  std::uint64_t checkpoints_ REPRO_GUARDED_BY(mutex_) = 0;
  std::uint64_t events_since_checkpoint_ REPRO_GUARDED_BY(mutex_) = 0;
  // Set in the constructor, then immutable.
  bool journal_async_ REPRO_CONST_AFTER_INIT = false;
  std::thread journal_thread_;
  mutable common::Mutex journal_mutex_{common::LockRank::kJournal};
  common::CondVar journal_cv_;
  std::deque<JournalRecord> journal_queue_ REPRO_GUARDED_BY(journal_mutex_);
  bool journal_busy_ REPRO_GUARDED_BY(journal_mutex_) = false;
  bool journal_stop_ REPRO_GUARDED_BY(journal_mutex_) = false;

  /// Ring-mode state (empty under inline_ingest), one entry per shard;
  /// the vector itself is fixed at construction.
  std::vector<std::unique_ptr<Ingress>> ingress_ REPRO_CONST_AFTER_INIT;
  std::atomic<bool> stop_{false};
  /// Windows push() refused because their shard had failed. A failed
  /// shard's unread ring backlog is added in stats_locked.
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace repro::online

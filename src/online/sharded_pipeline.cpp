#include "repro/online/sharded_pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <tuple>
#include <utility>

#include "repro/common/ensure.hpp"
#include "repro/engine/checkpoint.hpp"

namespace repro::online {

ShardedPipeline::ShardedPipeline(engine::ModelEngine& engine,
                                 ShardedPipelineOptions options)
    : engine_(engine), options_(std::move(options)) {
  REPRO_ENSURE(options_.producers > 0, "need at least one producer lane");
  REPRO_ENSURE(options_.shards > 0, "need at least one shard");
  if (options_.builder.ways == 0) options_.builder.ways = engine_.ways();
  REPRO_ENSURE(options_.builder.ways == engine_.ways(),
               "builder grid must match the engine's cache ways");
  if (options_.harden && options_.sanitizer.ways == 0)
    options_.sanitizer.ways = engine_.ways();
  // An empty shard can do no work: clamp to one shard per lane.
  if (options_.shards > options_.producers)
    options_.shards = options_.producers;

  lane_shard_.resize(options_.producers);
  lane_ring_.resize(options_.producers);
  std::vector<std::size_t> ring_counts(options_.shards, 0);
  for (std::size_t lane = 0; lane < options_.producers; ++lane) {
    lane_shard_[lane] = lane % options_.shards;
    lane_ring_[lane] = ring_counts[lane_shard_[lane]]++;
  }

  PipelineShardOptions shard_options;
  shard_options.harden = options_.harden;
  shard_options.sanitizer = options_.sanitizer;
  shard_options.quarantine_capacity = options_.quarantine_capacity;
  // Forwarded windows only need copying back when the refitter will
  // consume them.
  shard_options.capture_forwarded = options_.power.enabled;
  shards_.reserve(options_.shards);
  // The base is private; the upcast is only accessible in class scope.
  BatchSink& sink = *this;
  for (std::size_t s = 0; s < options_.shards; ++s)
    shards_.push_back(
        std::make_unique<PipelineShard>(s, sink, shard_options));

  {
    common::MutexLock lock(mutex_);
    delivered_.resize(options_.producers);
    if (options_.power.enabled)
      refitter_.emplace(engine_.machine().cores, options_.power);
  }

  // Durability (ISSUE 8): recover BEFORE any worker can push an event,
  // so the recovered engine state and the resumed seq space are in
  // place when the first new revision lands.
  const DurabilityOptions& durability = options_.durability;
  if (durability.recover && (!durability.checkpoint_path.empty() ||
                             !durability.journal_path.empty()))
    recovery_ = recover_engine(engine_, durability.checkpoint_path,
                               durability.journal_path);
  if (!durability.checkpoint_path.empty() ||
      !durability.journal_path.empty()) {
    common::MutexLock lock(mutex_);
    next_seq_ = recovery_.next_seq;
    if (!durability.journal_path.empty()) {
      // Keep exactly the prefix recovery folded into the engine; a
      // torn/corrupt tail (and, after a replay divergence, everything
      // past the last replayed frame) is cut before the first append.
      const std::uint64_t keep =
          durability.recover ? recovery_.durable_bytes : 0;
      const bool opened =
          journal_.open(durability.journal_path, durability.journal, keep);
      journal_enabled_.store(opened, std::memory_order_release);
      if (!opened) {
        // relaxed: statistics counter; surfaced via stats() only.
        journal_write_failures_.fetch_add(1, std::memory_order_relaxed);
      } else {
        // kOnRevision promises the record is durable before the apply
        // returns, so it must append inline; the relaxed policies move
        // encode + append + fsync onto a dedicated writer so shards
        // never wait on file I/O behind the coordinator lock.
        journal_async_ =
            durability.journal.fsync != JournalFsync::kOnRevision;
        if (journal_async_)
          journal_thread_ =
              std::thread(&ShardedPipeline::journal_loop, this);
      }
    }
  }

  if (!options_.inline_ingest) {
    ingress_.reserve(options_.shards);
    for (std::size_t s = 0; s < options_.shards; ++s) {
      auto in = std::make_unique<Ingress>();
      in->rings = std::make_unique<common::RingSet<sim::Sample>>(
          ring_counts[s], options_.ring_capacity);
      ingress_.push_back(std::move(in));
    }
    for (std::size_t s = 0; s < options_.shards; ++s)
      ingress_[s]->worker =
          std::thread(&ShardedPipeline::worker_loop, this, s);
  }
}

ShardedPipeline::~ShardedPipeline() {
  if (!ingress_.empty()) {
    stop_.store(true, std::memory_order_release);
    // Same two-fence handshake as enqueue(): either a worker's
    // park-time re-check sees stop_, or we see it parked and wake it.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    for (auto& in : ingress_) {
      common::MutexLock lock(in->ring_mutex);
      in->ring_cv.notify_one();
    }
    // A healthy worker drains its rings first; a failed one has
    // already returned.
    for (auto& in : ingress_) in->worker.join();
  }
  // The journal writer outlives the workers: events they delivered are
  // still draining onto disk. journal_loop empties its queue before
  // honoring the stop flag.
  if (journal_thread_.joinable()) {
    {
      common::MutexLock lock(journal_mutex_);
      journal_stop_ = true;
      journal_cv_.notify_all();
    }
    journal_thread_.join();
  }
}

void ShardedPipeline::monitor(ProcessId pid, DieId die,
                              engine::ProcessHandle handle) {
  // The baseline comes from the engine's current snapshot; nothing is
  // held here, so the builder lock nests under no pipeline lock.
  const core::ProcessProfile baseline = engine_.profile(handle);
  auto builder =
      std::make_unique<ProfileBuilder>(baseline.name, options_.builder);
  builder->set_baseline(baseline);
  monitor_slot(pid, die, baseline.name, handle, std::move(builder));
}

void ShardedPipeline::monitor(ProcessId pid, DieId die, std::string name) {
  auto builder = std::make_unique<ProfileBuilder>(name, options_.builder);
  monitor_slot(pid, die, std::move(name), std::nullopt, std::move(builder));
}

void ShardedPipeline::monitor_slot(
    ProcessId pid, DieId die, std::string name,
    std::optional<engine::ProcessHandle> handle,
    std::unique_ptr<ProfileBuilder> builder) {
  const DieId lane = options_.producers > 1 ? die : 0;
  REPRO_ENSURE(lane < options_.producers,
               "monitor die out of producer-lane range");
  std::size_t slot_index = 0;
  std::size_t shard = 0;
  {
    common::MutexLock lock(mutex_);
    slot_index = slots_.size();
    auto slot = std::make_unique<Slot>();
    slot->pid = pid;
    slot->lane = lane;
    slot->shard = lane_shard_[lane];
    slot->name = std::move(name);
    slot->handle = handle;
    shard = slot->shard;
    slots_.push_back(std::move(slot));
  }
  // Outside mutex_: the coordinator never holds its lock while calling
  // into a shard (the lock order runs the other way).
  shards_[shard]->attach(lane, slot_index, pid, std::move(builder));
}

std::optional<engine::ProcessHandle> ShardedPipeline::handle_of(
    ProcessId pid) const {
  common::MutexLock lock(mutex_);
  for (const auto& s : slots_)
    if (s->pid == pid) return s->handle;
  return std::nullopt;
}

void ShardedPipeline::set_query(engine::CoScheduleQuery query) {
  common::MutexLock lock(mutex_);
  query_ = std::move(query);
  latest_.reset();  // stale seeds would belong to the previous query
}

void ShardedPipeline::push(const sim::Sample& sample) {
  const DieId lane = options_.producers > 1 ? sample.die : 0;
  REPRO_ENSURE(lane < options_.producers,
               "sample die tag out of producer-lane range");
  if (ingress_.empty()) {
    // inline_ingest: the whole chain runs here, on the caller's thread.
    shards_[lane_shard_[lane]]->ingest(lane, sample);
    return;
  }
  enqueue(lane, sample);
}

void ShardedPipeline::enqueue(DieId lane, const sim::Sample& sample) {
  Ingress& in = *ingress_[lane_shard_[lane]];
  // A failed shard accepts nothing: its windows count as dropped and
  // producers never block on it.
  if (in.failed.load(std::memory_order_acquire)) {
    // relaxed: statistics counter; no reader orders state off it.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::size_t ring = lane_ring_[lane];
  sim::Sample window = sample;
  if (!in.rings->try_push(ring, window)) {
    // kBlock: register as a drain waiter, fence, then re-try — the
    // worker's symmetric fence-then-check after each pop guarantees
    // that either our retry sees the freed slot or the worker sees
    // our registration and notifies (no lost wakeup).
    common::MutexLock lock(in.ring_mutex);
    // relaxed: the seq_cst fence below orders the count against the
    // worker's symmetric fence-then-check; ring_mutex covers the cv.
    in.drain_waiters.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    bool pushed;
    while (!(pushed = in.rings->try_push(ring, window)) &&
           !in.failed.load(std::memory_order_acquire))
      in.drain_cv.wait(in.ring_mutex);
    // relaxed: waiter bookkeeping only; still under ring_mutex.
    in.drain_waiters.fetch_sub(1, std::memory_order_relaxed);
    if (!pushed) {
      // The shard failed while we were parked: the window is lost.
      // relaxed: statistics counter; orders nothing.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  in.enqueued.fetch_add(1, std::memory_order_release);
  // Wake the shard worker if it parked on empty rings: publish (the
  // push above), fence, check the parked flag. Either the worker's
  // park-time empty re-check sees our element, or we see its flag —
  // losing the wakeup would need both to fail.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  // relaxed: the seq_cst fence above supplies the flag's ordering.
  if (in.worker_parked.load(std::memory_order_relaxed)) {
    common::MutexLock lock(in.ring_mutex);
    in.ring_cv.notify_one();
  }
}

void ShardedPipeline::worker_loop(std::size_t shard) {
  Ingress& in = *ingress_[shard];
  for (;;) {
    // Fail-stop: a failed shard's worker never pops again; whatever
    // is left in its rings counts as dropped (stats_locked).
    if (in.failed.load(std::memory_order_acquire)) return;
    sim::Sample window;
    if (in.rings->try_pop(window)) {
      const DieId lane = options_.producers > 1 ? window.die : 0;
      try {
        shards_[shard]->ingest(lane, window);
      } catch (...) {
        // Everything the shard and coordinator committed before the
        // throw stands (their locks released on unwind). The errors
        // ingest raises come from the coordinator, after deliver()
        // counted the window seen. Nothing restarts the shard.
        fail_shard(shard, std::current_exception());
      }
      in.drained.fetch_add(1, std::memory_order_release);
      // Wake a kBlock producer waiting for a slot or a drain waiter —
      // same fence-then-check as the producer side.
      std::atomic_thread_fence(std::memory_order_seq_cst);
      // relaxed: the seq_cst fence above supplies the ordering.
      if (in.drain_waiters.load(std::memory_order_relaxed) > 0) {
        common::MutexLock lock(in.ring_mutex);
        in.drain_cv.notify_all();
      }
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) return;  // rings drained
    // Park: publish the flag, fence, re-check the rings and stop_
    // while holding ring_mutex (producers notify under it, so a wakeup
    // posted after our re-check cannot slip past the wait).
    common::MutexLock lock(in.ring_mutex);
    // relaxed: the seq_cst fence below (paired with the producer's)
    // orders the flag against the ring contents.
    in.worker_parked.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (in.rings->empty() &&
        !stop_.load(std::memory_order_relaxed) &&  // relaxed: fence above
        // relaxed: only stored under ring_mutex, which we hold.
        !in.failed.load(std::memory_order_relaxed))
      in.ring_cv.wait(in.ring_mutex);
    // relaxed: cleared under the same mutex; no payload rides on it.
    in.worker_parked.store(false, std::memory_order_relaxed);
  }
}

void ShardedPipeline::drain_rings() {
  // Wait until every shard worker has ingested everything enqueued
  // before this call. Windows pushed concurrently with the drain are
  // not covered — callers (finish, tests) drain after producers stop.
  for (auto& entry : ingress_) {
    Ingress& in = *entry;
    const std::uint64_t target = in.enqueued.load(std::memory_order_acquire);
    common::MutexLock lock(in.ring_mutex);
    // relaxed: the seq_cst fence below orders the count against the
    // worker's symmetric fence-then-check; ring_mutex covers the cv.
    in.drain_waiters.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    // A failed shard will never drain again — fail_shard notifies, so
    // waiters fall through here.
    while (in.drained.load(std::memory_order_acquire) < target &&
           !in.failed.load(std::memory_order_acquire))
      in.drain_cv.wait(in.ring_mutex);
    // relaxed: waiter bookkeeping only; still under ring_mutex.
    in.drain_waiters.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ShardedPipeline::fail_shard(std::size_t shard,
                                 std::exception_ptr error) {
  Ingress& in = *ingress_[shard];
  common::MutexLock lock(in.ring_mutex);
  if (in.failed.load(std::memory_order_relaxed))  // relaxed: under ring_mutex
    return;  // the first error is the one finish() reports
  in.error = std::move(error);
  in.failed.store(true, std::memory_order_release);
  in.ring_cv.notify_one();   // a parked worker exits
  in.drain_cv.notify_all();  // release kBlock producers/drain waiters
}

bool ShardedPipeline::shard_failed(std::size_t shard) const {
  return !ingress_.empty() &&
         ingress_[shard]->failed.load(std::memory_order_acquire);
}

void ShardedPipeline::deliver(WindowBatch batch) {
  common::MutexLock lock(mutex_);
  ++windows_seen_;
  switch (batch.verdict) {
    case WindowVerdict::kForwarded:
      ++windows_forwarded_;
      break;
    case WindowVerdict::kRepaired:
      ++windows_forwarded_;
      ++windows_repaired_;
      break;
    case WindowVerdict::kQuarantinedOrder:
      ++q_order_;
      break;
    case WindowVerdict::kQuarantinedImplausible:
      ++q_implausible_;
      break;
    case WindowVerdict::kQuarantinedOutlier:
      ++q_outlier_;
      break;
  }
  phase_changes_ += batch.phase_changes;
  frequency_steps_ += batch.frequency_steps;

  // With one lane every window releases at once: a new seq moves the
  // frontier to itself, an old one takes the late-seq branch.
  const DieId lane = batch.die;
  if (delivered_[lane].has_value() && batch.seq <= *delivered_[lane]) {
    // Late or duplicate seq (fault-injected streams): the watermark
    // has already passed it, so it processes out-of-band. Its window
    // was quarantined by the sanitizer's order check, so nothing
    // order-dependent rides on it.
    std::vector<WindowBatch> group;
    group.push_back(std::move(batch));
    process_group_locked(std::move(group));
    return;
  }
  delivered_[lane] = batch.seq;
  const std::pair<std::uint64_t, DieId> key{batch.seq, lane};
  pending_.emplace(key, std::move(batch));
  release_ready_locked();
}

void ShardedPipeline::release_ready_locked() {
  // Frontier = the newest seq every lane has reached. A lane that has
  // never delivered blocks release entirely (finish() flushes).
  // A failed shard's lanes deliver nothing more, so they stop
  // holding the frontier back.
  std::optional<std::uint64_t> frontier;
  for (std::size_t lane = 0; lane < delivered_.size(); ++lane) {
    if (shard_failed(lane_shard_[lane])) continue;
    const std::optional<std::uint64_t>& d = delivered_[lane];
    if (!d.has_value()) return;
    frontier = frontier.has_value() ? std::min(*frontier, *d) : *d;
  }
  if (frontier.has_value()) release_groups_locked(frontier);
}

void ShardedPipeline::release_groups_locked(
    std::optional<std::uint64_t> frontier) {
  // Release whole same-seq groups in ascending seq order; map keys are
  // (seq, lane), so each group drains in ascending die order.
  while (!pending_.empty()) {
    const std::uint64_t seq = pending_.begin()->first.first;
    if (frontier.has_value() && seq > *frontier) return;
    std::vector<WindowBatch> group;
    while (!pending_.empty() && pending_.begin()->first.first == seq) {
      group.push_back(std::move(pending_.begin()->second));
      pending_.erase(pending_.begin());
    }
    process_group_locked(std::move(group));
  }
}

void ShardedPipeline::process_group_locked(std::vector<WindowBatch> group) {
  if (!options_.coalesce_resolves) {
    for (WindowBatch& batch : group) {
      for (ShardCandidate& c : batch.candidates) {
        std::optional<RevisionEvent> event = apply_candidate_locked(
            *slots_[c.slot], std::move(c.revision), c.time, /*solve=*/true);
        if (event.has_value()) {
          PipelineEvent wrapped;
          wrapped.payload = std::move(*event);
          record_event_locked(std::move(wrapped));
        }
      }
    }
  } else {
    // Phase coincidence: a workload-wide phase change revises several
    // lanes in one merge group. Apply every revision (each passes its
    // own gates) but re-price the co-schedule once, on the last — the
    // intermediate equilibria would be discarded one deliver later.
    std::vector<RevisionEvent> applied;
    for (WindowBatch& batch : group)
      for (ShardCandidate& c : batch.candidates)
        if (auto event = apply_candidate_locked(*slots_[c.slot],
                                                std::move(c.revision),
                                                c.time, /*solve=*/false))
          applied.push_back(std::move(*event));
    if (!applied.empty()) {
      const bool solved = solve_query_locked(applied.back());
      if (solved && applied.size() > 1)
        coalesced_resolves_ += applied.size() - 1;
    }
    for (RevisionEvent& event : applied) {
      PipelineEvent wrapped;
      wrapped.payload = std::move(event);
      record_event_locked(std::move(wrapped));
    }
  }
  refit_group_locked(group);
}

std::optional<RevisionEvent> ShardedPipeline::apply_candidate_locked(
    Slot& slot, ProfileRevision revision, Seconds time, bool solve) {
  // Degradation gate 1: a revision whose Eq. 3 fit barely explains its
  // own windows (mixed phases, residual corruption) must not replace a
  // working profile. Skipped while the process has no profile at all —
  // any model beats none for cold start.
  if (options_.harden && slot.handle.has_value() &&
      options_.max_fit_rms > 0.0 &&
      !(revision.quality.fit_rms <= options_.max_fit_rms)) {
    ++revisions_rejected_;
    return std::nullopt;
  }

  // Degradation gate 2: validation. try_apply/register_process
  // validate before touching the registry, so a refusal here leaves the
  // engine's registry and memoized artifacts exactly as they were.
  // The hardened pipeline degrades to last-good and counts the
  // refusal. The unhardened one (the chaos bench's control arm) makes
  // it an error: inline, out of push(); in ring mode it fails the
  // shard that produced the revision (not whichever worker released
  // its merge group), and finish() rethrows it.
  const auto refuse = [&](std::exception_ptr error) REPRO_REQUIRES(mutex_) {
    if (options_.harden) {
      ++revisions_rejected_;
    } else if (ingress_.empty()) {
      std::rethrow_exception(std::move(error));
    } else {
      fail_shard(slot.shard, std::move(error));
    }
    return std::optional<RevisionEvent>{};
  };
  if (slot.handle.has_value()) {
    const engine::ApplyResult applied = engine_.try_apply(
        engine::Revision::process(*slot.handle, std::move(revision.profile)));
    if (!applied.applied)
      return refuse(std::make_exception_ptr(
          Error("revision rejected: " + applied.reason)));
  } else {
    try {
      slot.handle = engine_.register_process(std::move(revision.profile));
    } catch (const Error&) {
      return refuse(std::current_exception());
    }
  }
  ++revisions_;

  RevisionEvent event;
  event.time = time;
  event.handle = *slot.handle;
  // Read through the snapshot's reference: the journal record takes
  // the one copy of the applied profile it needs.
  event.revision = engine_.snapshot()->profile(*slot.handle).revision;
  event.quality = revision.quality;
  if (solve) solve_query_locked(event);
  return event;
}

bool ShardedPipeline::solve_query_locked(RevisionEvent& event) {
  if (!query_.has_value()) return false;
  bool all_registered = true;
  for (const auto& s : slots_)
    if (!s->handle.has_value()) all_registered = false;
  if (!all_registered) return false;
  engine::CoScheduleQuery q = *query_;
  q.warm_start = warm_seeds_locked();
  try {
    engine::SystemPrediction prediction = engine_.predict(q);
    ++resolves_;
    solver_iterations_ +=
        static_cast<std::uint64_t>(prediction.solver_iterations);
    solver_fallbacks_ +=
        static_cast<std::uint64_t>(prediction.solver_fallbacks);
    event.resolved = true;
    event.solver_iterations = prediction.solver_iterations;
    event.solver_fallbacks = prediction.solver_fallbacks;
    event.prediction = prediction;
    latest_ = std::move(prediction);
  } catch (const Error&) {
    // Degradation gate 3: a failed re-solve (Newton AND its bisection
    // fallback) must not escape push(). Re-price from the last-good
    // equilibrium when there is one.
    if (!options_.harden) throw;
    ++degraded_resolves_;
    event.degraded = true;
    if (latest_.has_value()) {
      engine::SystemPrediction carried = *latest_;
      carried.degraded = true;
      carried.solver_iterations = 0;
      carried.solver_fallbacks = 0;
      event.resolved = true;
      event.prediction = carried;
      latest_ = std::move(carried);
    }
  }
  return true;
}

std::vector<double> ShardedPipeline::warm_seeds_locked() const {
  if (!latest_.has_value()) return {};
  // Regroup the previous operating points per core (predict preserves
  // slot order within a core), then flatten in (core, slot) order —
  // the CoScheduleQuery::warm_start convention.
  std::vector<std::vector<double>> per_core(engine_.machine().cores);
  for (const engine::ProcessOperatingPoint& pt : latest_->processes)
    per_core[pt.core].push_back(pt.prediction.effective_size);
  std::vector<double> seeds;
  for (CoreId c = 0; c < engine_.machine().cores; ++c) {
    if (per_core[c].size() != query_->assignment.per_core[c].size())
      return {};  // query changed shape since the last solve: cold
    for (double s : per_core[c]) seeds.push_back(s);
  }
  return seeds;
}

void ShardedPipeline::refit_group_locked(
    const std::vector<WindowBatch>& group) {
  if (!refitter_.has_value()) return;
  // Power is measured at the package, so the refitter needs the
  // machine-wide window back. Re-assemble it only from a
  // complete group in which every lane's slice survived sanitization —
  // a partial sum would misattribute the package power to a subset of
  // the activity. Slices partition the per-core/per-process arrays
  // exactly (System::split_sample), so summing reconstructs the
  // original; the package-level power readings ride on every slice and
  // are taken from the first.
  if (group.size() != options_.producers) return;
  for (const WindowBatch& batch : group)
    if (!batch.window.has_value()) return;
  sim::Sample whole = *group.front().window;
  for (std::size_t i = 1; i < group.size(); ++i) {
    const sim::Sample& slice = *group[i].window;
    if (slice.core_rates.size() != whole.core_rates.size() ||
        slice.occupancy.size() != whole.occupancy.size() ||
        slice.process_delta.size() != whole.process_delta.size() ||
        slice.process_cpu.size() != whole.process_cpu.size())
      return;  // not slices of one machine window: skip this refit
    for (std::size_t c = 0; c < whole.core_rates.size(); ++c)
      whole.core_rates[c] += slice.core_rates[c];
    for (std::size_t p = 0; p < whole.occupancy.size(); ++p) {
      whole.occupancy[p] += slice.occupancy[p];
      whole.process_delta[p] += slice.process_delta[p];
      whole.process_cpu[p] += slice.process_cpu[p];
    }
  }
  refit_power_locked(whole);
}

void ShardedPipeline::refit_power_locked(const sim::Sample& sample) {
  // Refits revise an existing calibration; a performance-only engine
  // has nothing to revise. Both reads copy the engine's current
  // snapshot pointer under its builder lock, which ranks above mutex_.
  if (!engine_.has_power_model()) return;
  const core::PowerModel incumbent = engine_.power_model();
  std::optional<PowerRefitAttempt> attempt =
      refitter_->push(sample, incumbent);
  if (!attempt.has_value()) return;

  PowerRevisionEvent event;
  event.time = attempt->time;
  event.reason = attempt->reason;
  event.rank_deficient = attempt->rank_deficient;
  event.r2 = attempt->fit.r2;
  event.accuracy = attempt->fit.accuracy;
  event.candidate_err_pct = attempt->candidate_err_pct;
  event.incumbent_err_pct = attempt->incumbent_err_pct;
  event.window_samples = attempt->window_samples;
  if (attempt->accepted) {
    event.idle = attempt->model->idle_total();
    event.coefficients = attempt->model->coefficients();
    // Validate-before-mutate: a refusal leaves last-good installed
    // (and published) and carries the engine's reason into the event.
    const engine::ApplyResult applied =
        engine_.try_apply(engine::Revision::power_model(*attempt->model));
    if (applied.applied) {
      event.applied = true;
      event.revision = engine_.power_revision();
      ++power_revisions_;
    } else {
      event.reason = applied.reason;
      ++power_rejected_;
    }
  } else {
    if (!attempt->rank_deficient) {
      event.idle = attempt->fit.intercept;
      for (std::size_t i = 0; i < event.coefficients.size(); ++i)
        event.coefficients[i] = attempt->fit.coefficients[i];
    }
    ++power_rejected_;
  }
  PipelineEvent wrapped;
  wrapped.payload = std::move(event);
  record_event_locked(std::move(wrapped));
}

void ShardedPipeline::record_event_locked(PipelineEvent event) {
  event.seq = next_seq_++;
  // A rejected power refit changed no engine state: nothing to make
  // durable or to count toward the checkpoint cadence. (Rejected
  // profile revisions never reach the log at all.)
  if (event.is_profile() || event.power().applied) {
    ++events_since_checkpoint_;
    journal_event_locked(event);
  }
  events_.push_back(std::move(event));
  if (options_.history_capacity > 0 &&
      events_.size() > options_.history_capacity) {
    events_.pop_front();
    ++history_evicted_;
  }
  if (options_.durability.checkpoint_every > 0 &&
      !options_.durability.checkpoint_path.empty() &&
      events_since_checkpoint_ >= options_.durability.checkpoint_every)
    checkpoint_locked();
}

void ShardedPipeline::journal_event_locked(const PipelineEvent& event) {
  if (!journal_enabled_.load(std::memory_order_acquire)) return;
  JournalRecord record;
  record.seq = event.seq;
  record.time = event.time();
  if (event.is_profile()) {
    const RevisionEvent& rev = event.profile();
    record.handle = rev.handle;
    record.revision = rev.revision;
    // The snapshot read is exact: we hold mutex_, every apply happens
    // under mutex_, and try_apply published before returning — so this
    // IS the profile the event's apply installed.
    record.profile = engine_.profile(rev.handle);
  } else {
    record.revision = event.power().revision;
    record.power = engine_.power_model();
  }
  if (journal_async_) {
    // Hand the record (a self-contained copy of the applied state) to
    // the writer. Enqueue happens under mutex_, so queue order is seq
    // order is file frame order. The event counts as journaled NOW —
    // the count tracks the event log handed to the journal, and
    // flush_journal()/~ShardedPipeline guarantee every handed record
    // reaches the file (or latches a write failure).
    {
      common::MutexLock jlock(journal_mutex_);
      // The writer only parks when the queue is empty — so a push onto
      // a non-empty queue never needs a wake (the writer will re-check
      // before waiting). Skipping the notify keeps the hot path from
      // paying a futex wake per event.
      const bool was_empty = journal_queue_.empty();
      journal_queue_.push_back(std::move(record));
      if (was_empty) journal_cv_.notify_all();
    }
    ++journaled_events_;
    return;
  }
  if (!journal_.append(record)) {
    latch_journal_failure();
    return;
  }
  ++journaled_events_;
}

void ShardedPipeline::latch_journal_failure() {
  // Count the failure once, stop journaling, keep modeling.
  // relaxed: statistics counter; the enabled flag below carries the
  // release ordering readers rely on.
  journal_write_failures_.fetch_add(1, std::memory_order_relaxed);
  journal_enabled_.store(false, std::memory_order_release);
}

void ShardedPipeline::journal_loop() {
  std::deque<JournalRecord> batch;
  for (;;) {
    {
      common::MutexLock lock(journal_mutex_);
      journal_busy_ = false;
      journal_cv_.notify_all();  // flush_journal waits on empty && !busy
      journal_cv_.wait(journal_mutex_, [this]()
                                           REPRO_REQUIRES(journal_mutex_) {
                                             return !journal_queue_.empty() ||
                                                    journal_stop_;
                                           });
      if (journal_queue_.empty()) return;  // stop requested, fully drained
      // Swap out everything queued since the last wake: one park/wake
      // cycle amortizes over the whole burst instead of costing a
      // context switch per event.
      batch.swap(journal_queue_);
      journal_busy_ = true;
    }
    // File I/O runs with no lock held: shards keep applying revisions
    // while these encodes + appends (and any fsync the cadence
    // schedules) are in flight. This thread never takes mutex_, so the
    // lock order stays mutex_ -> journal_mutex_, acyclic.
    for (const JournalRecord& record : batch) {
      if (!journal_enabled_.load(std::memory_order_acquire)) break;
      if (!journal_.append(record)) latch_journal_failure();
    }
    batch.clear();
  }
}

void ShardedPipeline::flush_journal() {
  {
    common::MutexLock lock(journal_mutex_);
    journal_cv_.wait(journal_mutex_, [this]()
                                         REPRO_REQUIRES(journal_mutex_) {
                                           return journal_queue_.empty() &&
                                                  !journal_busy_;
                                         });
  }
  // The writer is parked inside its wait (queue empty, not busy), and
  // releasing journal_mutex_ after its last append gives us a
  // happens-before edge on the file state — safe to touch journal_
  // from this thread.
  if (journal_enabled_.load(std::memory_order_acquire) && !journal_.sync())
    latch_journal_failure();
}

bool ShardedPipeline::checkpoint_locked() {
  try {
    engine::save_checkpoint(options_.durability.checkpoint_path,
                            *engine_.snapshot(), next_seq_);
  } catch (const Error&) {
    // atomic_write_file failed before the rename: the previous
    // checkpoint file is intact. Counted with the journal failures —
    // one counter covers every durability write path.
    // relaxed: statistics counter; surfaced via stats() only.
    journal_write_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  ++checkpoints_;
  events_since_checkpoint_ = 0;
  return true;
}

bool ShardedPipeline::checkpoint() {
  if (options_.durability.checkpoint_path.empty()) return false;
  common::MutexLock lock(mutex_);
  return checkpoint_locked();
}

void ShardedPipeline::finish() {
  drain_rings();
  {
    common::MutexLock lock(mutex_);
    // Flush merge groups still parked behind the watermark — a lane
    // that went idle (or never spoke) holds the frontier back forever.
    release_groups_locked(std::nullopt);
  }
  // Flush every healthy builder's current phase, in slot order. Each
  // flush takes the shard lock, then the apply takes the coordinator
  // lock — sequentially, never nested, respecting the lock order.
  std::size_t count = 0;
  {
    common::MutexLock lock(mutex_);
    count = slots_.size();
  }
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t shard = 0;
    {
      common::MutexLock lock(mutex_);
      shard = slots_[i]->shard;
    }
    if (shard_failed(shard)) continue;
    std::optional<ProfileRevision> revision = shards_[shard]->flush_builder(i);
    if (!revision.has_value()) continue;
    common::MutexLock lock(mutex_);
    // finish() has no window timestamp; reuse the last event's (the
    // trace stays ordered).
    const Seconds t = events_.empty() ? 0.0 : events_.back().time();
    if (auto event = apply_candidate_locked(*slots_[i], std::move(*revision),
                                            t, /*solve=*/true)) {
      PipelineEvent wrapped;
      wrapped.payload = std::move(*event);
      record_event_locked(std::move(wrapped));
    }
  }
  // Make the run's tail durable regardless of the fsync cadence: after
  // finish() returns, everything the log holds survives a power cut.
  if (journal_async_) {
    flush_journal();
  } else {
    common::MutexLock lock(mutex_);
    if (journal_enabled_.load(std::memory_order_acquire) && !journal_.sync())
      latch_journal_failure();
  }
  for (const auto& entry : ingress_) {
    Ingress& in = *entry;
    if (!in.failed.load(std::memory_order_acquire)) continue;
    std::exception_ptr error;
    {
      common::MutexLock lock(in.ring_mutex);
      error = in.error;
    }
    std::rethrow_exception(error);
  }
}

std::deque<PipelineEvent> ShardedPipeline::events() const {
  common::MutexLock lock(mutex_);
  return events_;
}

std::vector<PipelineEvent> ShardedPipeline::events_since(
    EventCursor since) const {
  common::MutexLock lock(mutex_);
  std::vector<PipelineEvent> out;
  // Ring seqs are contiguous [next_seq_ - size, next_seq_), so the
  // first event with seq >= since sits at a computable offset.
  if (events_.empty() || since >= next_seq_) return out;
  const std::uint64_t front_seq = next_seq_ - events_.size();
  const std::uint64_t start = since > front_seq ? since - front_seq : 0;
  out.reserve(events_.size() - static_cast<std::size_t>(start));
  for (std::size_t i = static_cast<std::size_t>(start); i < events_.size();
       ++i)
    out.push_back(events_[i]);
  return out;
}

PipelineStats ShardedPipeline::stats_locked() const {
  PipelineStats s;
  // `windows` counts raw ingested windows whether or not they survived
  // sanitization, so it stays monotonic and comparable across modes.
  // In ring mode it counts *ingested* windows: ones refused by a failed
  // shard never entered the chain and show up only in
  // health.windows_dropped.
  s.windows = windows_seen_;
  s.revisions = revisions_;
  s.resolves = resolves_;
  s.coalesced_resolves = coalesced_resolves_;
  s.solver_iterations = solver_iterations_;
  s.solver_fallbacks = solver_fallbacks_;
  s.phase_changes = phase_changes_;
  s.frequency_steps = frequency_steps_;
  s.power_revisions = power_revisions_;
  s.power_rejected = power_rejected_;
  s.health.windows_seen = windows_seen_;
  s.health.windows_forwarded = windows_forwarded_;
  s.health.windows_repaired = windows_repaired_;
  s.health.windows_quarantined = q_order_ + q_implausible_ + q_outlier_;
  // relaxed: statistics snapshot; the counters below need not be
  // mutually consistent and order nothing.
  s.health.windows_dropped = dropped_.load(std::memory_order_relaxed);
  for (std::size_t shard = 0; shard < ingress_.size(); ++shard) {
    if (!shard_failed(shard)) continue;
    // A failed shard's unread backlog is lost. Exact once producers
    // and its last in-flight window are done: seen + dropped = pushed.
    const Ingress& in = *ingress_[shard];
    const std::uint64_t enqueued = in.enqueued.load(std::memory_order_acquire);
    const std::uint64_t drained = in.drained.load(std::memory_order_acquire);
    if (enqueued > drained) s.health.windows_dropped += enqueued - drained;
    ++s.health.shards_failed;
  }
  s.health.revisions_rejected = revisions_rejected_;
  s.health.degraded_resolves = degraded_resolves_;
  s.health.history_evicted = history_evicted_;
  s.journaled_events = journaled_events_;
  s.checkpoints = checkpoints_;
  s.health.recovery_truncated_frames = recovery_.journal.truncated_frames;
  s.health.journal_write_failures =
      journal_write_failures_.load(
          std::memory_order_relaxed);  // relaxed: ditto
  return s;
}

PipelineSnapshot ShardedPipeline::snapshot() const {
  common::MutexLock lock(mutex_);
  PipelineSnapshot s;
  s.stats = stats_locked();
  if (options_.harden) {
    // Aggregate of every per-die sanitizer, reconstructed from the
    // batch verdicts the shards reported (identical counters — each
    // sanitize() call bumps exactly one verdict).
    s.sanitizer.windows = windows_seen_;
    s.sanitizer.forwarded = windows_forwarded_;
    s.sanitizer.repaired = windows_repaired_;
    s.sanitizer.quarantined = q_order_ + q_implausible_ + q_outlier_;
    s.sanitizer.quarantined_order = q_order_;
    s.sanitizer.quarantined_implausible = q_implausible_;
    s.sanitizer.quarantined_outlier = q_outlier_;
  }
  s.latest = latest_;
  s.next_cursor = next_seq_;
  return s;
}

std::vector<QuarantineRecord> ShardedPipeline::quarantined() const {
  std::vector<QuarantineRecord> all;
  for (const auto& shard : shards_) {
    std::vector<QuarantineRecord> records = shard->quarantined();
    all.insert(all.end(), std::make_move_iterator(records.begin()),
               std::make_move_iterator(records.end()));
  }
  std::sort(all.begin(), all.end(),
            [](const QuarantineRecord& a, const QuarantineRecord& b) {
              return std::tie(a.seq, a.die) < std::tie(b.seq, b.die);
            });
  return all;
}

}  // namespace repro::online

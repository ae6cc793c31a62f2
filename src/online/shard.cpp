#include "repro/online/shard.hpp"

#include <utility>

#include "repro/common/ensure.hpp"

namespace repro::online {

namespace {

/// Classify one sanitize() call from its counter deltas — the verdict
/// taxonomy is exactly the SanitizerStats one, so no sanitizer API
/// change is needed and the coordinator's aggregated counters stay
/// bit-identical to a single sanitizer's.
WindowVerdict classify(const SanitizerStats& before,
                       const SanitizerStats& after) {
  if (after.quarantined_order > before.quarantined_order)
    return WindowVerdict::kQuarantinedOrder;
  if (after.quarantined_implausible > before.quarantined_implausible)
    return WindowVerdict::kQuarantinedImplausible;
  if (after.quarantined_outlier > before.quarantined_outlier)
    return WindowVerdict::kQuarantinedOutlier;
  if (after.repaired > before.repaired) return WindowVerdict::kRepaired;
  return WindowVerdict::kForwarded;
}

}  // namespace

const char* to_string(WindowVerdict verdict) {
  switch (verdict) {
    case WindowVerdict::kForwarded: return "forwarded";
    case WindowVerdict::kRepaired: return "repaired";
    case WindowVerdict::kQuarantinedOrder: return "out-of-order";
    case WindowVerdict::kQuarantinedImplausible: return "implausible";
    case WindowVerdict::kQuarantinedOutlier: return "outlier";
  }
  return "unknown";
}

PipelineShard::PipelineShard(std::size_t index, BatchSink& sink,
                             PipelineShardOptions options)
    : index_(index), sink_(sink), options_(std::move(options)) {}

PipelineShard::DieState& PipelineShard::state_of(DieId die) {
  auto it = dies_.find(die);
  if (it == dies_.end()) {
    it = dies_.emplace(die, DieState{}).first;
    if (options_.harden) it->second.sanitizer.emplace(options_.sanitizer);
  }
  return it->second;
}

std::uint64_t PipelineShard::phase_total(const DieState& state) const {
  std::uint64_t total = 0;
  for (const auto& b : state.builders) total += b->builder->phase_changes();
  return total;
}

std::uint64_t PipelineShard::frequency_step_total(
    const DieState& state) const {
  std::uint64_t total = 0;
  for (const auto& b : state.builders)
    total += b->builder->frequency_steps();
  return total;
}

void PipelineShard::attach(DieId die, std::size_t slot, ProcessId pid,
                           std::unique_ptr<ProfileBuilder> builder) {
  REPRO_ENSURE(builder != nullptr, "attach needs a builder");
  common::MutexLock lock(mutex_);
  DieState& state = state_of(die);
  auto entry = std::make_unique<BuilderSlot>();
  entry->slot = slot;
  entry->builder = std::move(builder);
  BuilderSlot* raw = entry.get();
  state.builders.push_back(std::move(entry));
  state.stream.attach(
      pid, [this, raw](const WindowObservation& obs) REPRO_REQUIRES(mutex_) {
        if (auto revision = raw->builder->push(obs)) {
          ShardCandidate candidate;
          candidate.slot = raw->slot;
          candidate.time = obs.time;
          candidate.revision = std::move(*revision);
          current_->candidates.push_back(std::move(candidate));
        }
      });
}

void PipelineShard::ingest(DieId die, const sim::Sample& sample) {
  common::MutexLock lock(mutex_);
  DieState& state = state_of(die);
  WindowBatch batch;
  batch.die = die;
  batch.seq = sample.seq;
  batch.time = sample.time;
  const std::uint64_t phases_before = phase_total(state);
  const std::uint64_t freq_steps_before = frequency_step_total(state);

  if (!state.sanitizer.has_value()) {
    current_ = &batch;
    state.stream.push(sample);
    current_ = nullptr;
    if (options_.capture_forwarded) batch.window = sample;
  } else {
    const SanitizerStats before = state.sanitizer->stats();
    sim::Sample clean;
    const bool ok = state.sanitizer->sanitize(sample, &clean);
    batch.verdict = classify(before, state.sanitizer->stats());
    if (ok) {
      current_ = &batch;
      state.stream.push(clean);
      current_ = nullptr;
      if (options_.capture_forwarded) batch.window = std::move(clean);
    } else if (options_.quarantine_capacity > 0) {
      QuarantineRecord record;
      record.die = die;
      record.seq = sample.seq;
      record.time = sample.time;
      record.verdict = batch.verdict;
      record.window = sample;  // the raw window, pre-repair
      quarantine_.push_back(std::move(record));
      if (quarantine_.size() > options_.quarantine_capacity)
        quarantine_.pop_front();
    }
  }

  batch.phase_changes = phase_total(state) - phases_before;
  batch.frequency_steps = frequency_step_total(state) - freq_steps_before;
  // Handoff under the shard mutex: batches leave in this die's ingest
  // order, which is what the coordinator's merge relies on.
  sink_.deliver(std::move(batch));
}

std::optional<ProfileRevision> PipelineShard::flush_builder(
    std::size_t slot) {
  common::MutexLock lock(mutex_);
  for (auto& [die, state] : dies_)
    for (auto& b : state.builders)
      if (b->slot == slot) return b->builder->finish();
  return std::nullopt;
}

std::vector<QuarantineRecord> PipelineShard::quarantined() const {
  common::MutexLock lock(mutex_);
  return {quarantine_.begin(), quarantine_.end()};
}

}  // namespace repro::online

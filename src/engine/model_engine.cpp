#include "repro/engine/model_engine.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "repro/common/ensure.hpp"
#include "repro/core/fill_model.hpp"
#include "repro/core/partitioning.hpp"

namespace repro::engine {

const core::ProcessProfile& EngineSnapshot::profile(
    ProcessHandle handle) const {
  return entry_of(handle).profile;
}

const core::PowerModel& EngineSnapshot::power_model() const {
  REPRO_ENSURE(power_.has_value(), "engine built without a power model");
  return *power_;
}

const EngineSnapshot::Entry& EngineSnapshot::entry_of(
    ProcessHandle handle) const {
  REPRO_ENSURE(handle < registry_.size(), "unknown process handle");
  return *registry_[handle];
}

std::vector<ProcessHandle> EngineSnapshot::live_handles() const {
  std::vector<ProcessHandle> handles(registry_.size());
  std::iota(handles.begin(), handles.end(), ProcessHandle{0});
  return handles;
}

namespace {

/// Name the features after the process and validate them, before any
/// lock is taken: a bad histogram or SPI law fails here with the
/// process named, not deep inside a later fill-curve integral.
void normalize(core::ProcessProfile& profile) {
  REPRO_ENSURE(!profile.name.empty(), "process needs a name");
  if (profile.features.name.empty()) profile.features.name = profile.name;
  profile.features.validate();
}

}  // namespace

ModelEngine::ModelEngine(sim::MachineConfig machine, EngineOptions options)
    : machine_(std::move(machine)),
      options_(options),
      solver_(machine_.l2.ways, options_.equilibrium),
      // The initial snapshot is empty, at epoch 0, so snapshot() is
      // never null.
      current_(std::make_shared<const EngineSnapshot>()) {
  machine_.validate();
  if (options_.threads != 1)
    pool_ = std::make_unique<common::ThreadPool>(options_.threads);
}

ModelEngine::ModelEngine(sim::MachineConfig machine, core::PowerModel power,
                         EngineOptions options)
    : ModelEngine(std::move(machine), options) {
  REPRO_ENSURE(power.cores() == machine_.cores,
               "power model trained for a different core count");
  common::MutexLock lock(builder_mutex_);
  EngineSnapshot draft = *current_;
  draft.power_.emplace(std::move(power));
  publish(std::move(draft));
}

ModelEngine::~ModelEngine() = default;

std::shared_ptr<const EngineSnapshot> ModelEngine::snapshot() const {
  common::MutexLock lock(builder_mutex_);
  return current_;
}

void ModelEngine::publish(EngineSnapshot draft) {
  // The draft's registry shares every unchanged Entry with the current
  // snapshot: copying it copied pointers, not profiles or curves.
  draft.epoch_ = std::max(current_->epoch_ + 1, draft.epoch_);
  current_ = std::make_shared<const EngineSnapshot>(std::move(draft));
}

bool ModelEngine::has_power_model() const {
  return snapshot()->has_power_model();
}

core::PowerModel ModelEngine::power_model() const {
  return snapshot()->power_model();
}

std::uint64_t ModelEngine::power_revision() const {
  return snapshot()->power_revision();
}

ProcessHandle ModelEngine::register_process(core::ProcessProfile profile) {
  normalize(profile);

  common::MutexLock lock(builder_mutex_);
  EngineSnapshot draft = *current_;
  ProcessHandle handle = 0;
  const auto it = draft.by_name_.find(profile.name);
  if (it != draft.by_name_.end()) {
    // Replacement: same handle, fresh Entry — the embedded once_flag is
    // what invalidates the memoized artifacts. The old Entry stays
    // alive for as long as some snapshot still references it.
    handle = it->second;
    draft.registry_[handle] = std::make_shared<Entry>(std::move(profile));
    // relaxed: monitoring counter; no reader orders state off it.
    cache_invalidations_.fetch_add(1, std::memory_order_relaxed);
  } else {
    handle = static_cast<ProcessHandle>(draft.registry_.size());
    draft.by_name_.emplace(profile.name, handle);
    draft.registry_.push_back(std::make_shared<Entry>(std::move(profile)));
  }
  publish(std::move(draft));
  return handle;
}

ApplyResult ModelEngine::try_apply(Revision revision) {
  ApplyResult result;
  const bool has_profile = revision.profile.has_value();
  const bool has_power = revision.power.has_value();
  if (has_profile == has_power) {
    result.reason = has_profile
                        ? "revision carries both a profile and a power payload"
                        : "revision carries no payload";
    result.epoch = snapshot()->epoch();
    return result;
  }

  if (has_profile) {
    core::ProcessProfile profile = std::move(revision.profile->profile);
    const ProcessHandle handle = revision.profile->handle;
    // Validate before taking the builder lock or touching the draft: a
    // refusal leaves the registry, the name index, and every memoized
    // artifact exactly as they were, and publishes nothing.
    try {
      normalize(profile);
      // Fit-frequency gate: Eq. 3 only holds at the clock the profile
      // was fitted at, so a revision fitted at a clock this machine
      // cannot run at would silently mis-predict every query. Legacy
      // profiles (fit_frequency 0) predate the gate and pass.
      const Hertz fit = profile.features.fit_frequency;
      REPRO_ENSURE(fit <= 0.0 || machine_.can_run_at(fit),
                   "fit-frequency mismatch: profile '" + profile.name +
                       "' fitted at " + std::to_string(fit) +
                       " Hz, which is not an operating point of machine '" +
                       machine_.name + "'");
      common::MutexLock lock(builder_mutex_);
      // The handle and rename checks need the current registry, so
      // they run under the lock — still before anything is published.
      REPRO_ENSURE(handle < current_->registry_.size(),
                   "unknown process handle");
      EngineSnapshot draft = *current_;
      const std::string old_name = draft.registry_[handle]->profile.name;
      if (profile.name != old_name) {
        const auto it = draft.by_name_.find(profile.name);
        REPRO_ENSURE(it == draft.by_name_.end() || it->second == handle,
                     "rename collides with another registered process");
        draft.by_name_.erase(old_name);
        draft.by_name_.emplace(profile.name, handle);
      }
      // Fresh Entry = fresh once_flag: the next prediction that touches
      // this handle rebuilds the fill curve from the new revision.
      draft.registry_[handle] = std::make_shared<Entry>(std::move(profile));
      // relaxed: monitoring counter; no reader orders state off it.
      cache_invalidations_.fetch_add(1, std::memory_order_relaxed);
      publish(std::move(draft));
      result.applied = true;
      result.epoch = current_->epoch_;
    } catch (const Error& e) {
      result.reason = e.what();
      result.epoch = snapshot()->epoch();
    }
    return result;
  }

  core::PowerModel power = std::move(*revision.power);
  if (power.cores() != machine_.cores) {
    result.reason = "power revision trained for a different core count";
  } else if (!(std::isfinite(power.idle_total()) && power.idle_total() > 0.0)) {
    result.reason = "power revision needs a positive finite idle power";
  } else {
    for (double c : power.coefficients())
      if (!std::isfinite(c)) {
        result.reason = "power revision has a non-finite coefficient";
        break;
      }
  }
  if (!result.reason.empty()) {
    result.epoch = snapshot()->epoch();
    return result;
  }
  common::MutexLock lock(builder_mutex_);
  if (!current_->power_.has_value()) {
    result.reason =
        "cannot revise power on an engine built without a power model";
  } else {
    EngineSnapshot draft = *current_;
    draft.power_.emplace(std::move(power));
    ++draft.power_revision_;
    publish(std::move(draft));
    result.applied = true;
  }
  result.epoch = current_->epoch_;
  return result;
}

void ModelEngine::restore(std::vector<core::ProcessProfile> profiles,
                          std::optional<core::PowerModel> power,
                          std::uint64_t power_revision, std::uint64_t epoch) {
  // Validate the payload before taking the lock; every refusal below
  // throws before publish(), so a refused restore leaves the fresh
  // engine exactly as constructed.
  for (core::ProcessProfile& p : profiles) normalize(p);
  if (power.has_value())
    REPRO_ENSURE(power->cores() == machine_.cores,
                 "checkpoint power model trained for a different core count");

  common::MutexLock lock(builder_mutex_);
  REPRO_ENSURE(current_->registry_.empty() && current_->power_revision_ == 0,
               "restore requires a freshly-constructed engine");
  EngineSnapshot draft = *current_;
  if (power.has_value()) {
    REPRO_ENSURE(
        draft.power_.has_value(),
        "checkpoint carries a power model but the engine was built "
        "without one");
    draft.power_.emplace(std::move(*power));
  }
  for (core::ProcessProfile& p : profiles) {
    const auto handle = static_cast<ProcessHandle>(draft.registry_.size());
    REPRO_ENSURE(draft.by_name_.emplace(p.name, handle).second,
                 "checkpoint registers a duplicate name: " + p.name);
    draft.registry_.push_back(std::make_shared<Entry>(std::move(p)));
  }
  draft.power_revision_ = power_revision;
  // publish() lands at max(current + 1, `epoch`), so the counter never
  // moves backwards across a crash.
  draft.epoch_ = epoch;
  publish(std::move(draft));
}

std::optional<ProcessHandle> ModelEngine::find(const std::string& name) const {
  return snapshot()->find(name);
}

core::ProcessProfile ModelEngine::profile(ProcessHandle handle) const {
  return snapshot()->profile(handle);
}

std::size_t ModelEngine::process_count() const {
  return snapshot()->process_count();
}

const ModelEngine::Artifacts& ModelEngine::artifacts_of(
    const Entry& entry) const {
  bool built_now = false;
  std::call_once(entry.once, [&] {
    Artifacts a;
    a.fill = core::fill_curve(entry.profile.features.histogram,
                              machine_.l2.ways,
                              options_.equilibrium.mpa_floor);
    entry.artifacts = std::move(a);
    built_now = true;
  });
  // The artifact itself is published by the call_once above, not by
  // this counter.
  (built_now ? cache_misses_ : cache_hits_)
      .fetch_add(1, std::memory_order_relaxed);  // relaxed: tally only
  return entry.artifacts;
}

namespace detail {

/// One thread's pricing buffers: the query a QuerySource may fill, the
/// prediction a sink reads, and predict_on's per-die gather buffers.
/// All keep their capacity from candidate to candidate, so a warmed
/// thread allocates nothing here.
struct PricingScratch {
  struct Slot {
    ProcessHandle handle;
    CoreId core;
  };
  CoScheduleQuery query;
  SystemPrediction prediction;
  std::vector<std::size_t> slot_offset;
  std::vector<Slot> slots;
  std::vector<core::SolverInput> inputs;
  std::vector<double> shares;
  std::vector<const math::PiecewiseLinear*> fill;
  std::vector<double> seeds;
};

}  // namespace detail

namespace {

thread_local detail::PricingScratch tls_scratch;
thread_local bool tls_scratch_busy = false;

/// Borrows this thread's scratch for one candidate. A callback that
/// re-enters the engine while the scratch is on loan gets a fresh one.
class ScratchLease {
 public:
  ScratchLease() {
    if (tls_scratch_busy) {
      own_ = std::make_unique<detail::PricingScratch>();
      scratch_ = own_.get();
    } else {
      tls_scratch_busy = true;
      scratch_ = &tls_scratch;
    }
  }
  ~ScratchLease() {
    if (own_ == nullptr) tls_scratch_busy = false;
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  detail::PricingScratch& get() { return *scratch_; }

 private:
  detail::PricingScratch* scratch_;
  std::unique_ptr<detail::PricingScratch> own_;
};

}  // namespace

void ModelEngine::predict_on(const EngineSnapshot& snapshot,
                             const CoScheduleQuery& query,
                             detail::PricingScratch& scratch,
                             SystemPrediction& out) const {
  query.assignment.validate(machine_.cores, snapshot.registry_.size());
  if (!query.partition.empty())
    REPRO_ENSURE(query.partition.size() == machine_.dies,
                 "partition needs one quota list per die");
  if (!query.warm_start.empty())
    REPRO_ENSURE(query.warm_start.size() == query.assignment.process_count(),
                 "warm start needs one seed per scheduled process");
  if (!query.core_frequency.empty()) {
    REPRO_ENSURE(query.core_frequency.size() == machine_.cores,
                 "core_frequency needs one clock per core");
    for (Hertz hz : query.core_frequency)
      REPRO_ENSURE(hz > 0.0, "query clocks must be positive");
  }
  // The clock each core is priced at: the query's what-if override, or
  // the machine's configured (possibly heterogeneous) frequencies.
  const auto clock_of = [&](CoreId c) -> Hertz {
    return query.core_frequency.empty() ? machine_.frequency_of(c)
                                        : query.core_frequency[c];
  };

  // Global (core, slot) position of each core's first process, so a
  // die's warm-start seeds can be sliced out of the flat vector even
  // when the machine maps cores to dies non-contiguously.
  std::vector<std::size_t>& slot_offset = scratch.slot_offset;
  slot_offset.assign(machine_.cores + 1, 0);
  for (CoreId c = 0; c < machine_.cores; ++c)
    slot_offset[c + 1] = slot_offset[c] + query.assignment.per_core[c].size();

  const bool has_power = snapshot.power_.has_value();
  const std::size_t scheduled = query.assignment.process_count();
  out.processes.clear();
  out.processes.reserve(scheduled);
  out.core_power.clear();
  out.total_power = 0.0;
  out.throughput_ips = 0.0;
  out.solver_iterations = 0;
  out.solver_fallbacks = 0;
  out.degraded = false;
  if (has_power) {
    out.core_power.assign(machine_.cores, snapshot.power_->idle_core());
    out.total_power = snapshot.power_->idle_total();
  }

  // Per-die solver inputs, gathered into buffers sized for the whole
  // query and refilled die by die.
  std::vector<detail::PricingScratch::Slot>& slots = scratch.slots;
  std::vector<core::SolverInput>& inputs = scratch.inputs;
  std::vector<double>& shares = scratch.shares;
  std::vector<const math::PiecewiseLinear*>& fill = scratch.fill;
  std::vector<double>& seeds = scratch.seeds;
  slots.reserve(scheduled);
  inputs.reserve(scheduled);
  shares.reserve(scheduled);
  fill.reserve(scheduled);
  if (!query.warm_start.empty()) seeds.reserve(scheduled);

  for (DieId die = 0; die < machine_.dies; ++die) {
    // Gather the die's processes in (core, slot) order, with the CPU
    // share of their run queue and their memoized fill curves.
    const auto on_die = [&](CoreId c) {
      return machine_.core_to_die[c] == die;
    };
    slots.clear();
    inputs.clear();
    shares.clear();
    fill.clear();
    seeds.clear();
    for (CoreId c = 0; c < machine_.cores; ++c) {
      if (!on_die(c)) continue;
      const std::size_t q = query.assignment.per_core[c].size();
      for (std::size_t slot = 0; slot < q; ++slot) {
        const std::size_t idx = query.assignment.per_core[c][slot];
        const Entry& entry =
            snapshot.entry_of(static_cast<ProcessHandle>(idx));
        slots.push_back({static_cast<ProcessHandle>(idx), c});
        // Price Eq. 3 at the core's clock by borrowing the histogram and
        // scaling α/β exactly as FeatureVector::at_frequency does. The
        // memoized fill curve stays valid because it is a function of
        // the histogram only, which is frequency-free. At the profile's
        // own clock, and for a legacy profile (fit_frequency 0), α/β
        // pass through unchanged — both keep the pre-frequency-aware
        // results bit-identical.
        inputs.push_back(
            core::SolverInput::at_clock(entry.profile.features, clock_of(c)));
        shares.push_back(1.0 / static_cast<double>(q));
        fill.push_back(&artifacts_of(entry).fill);
        if (!query.warm_start.empty())
          seeds.push_back(query.warm_start[slot_offset[c] + slot]);
      }
    }
    if (slots.empty()) continue;

    std::vector<core::ProcessPrediction> eq;
    const bool partitioned =
        !query.partition.empty() && !query.partition[die].empty();
    if (partitioned) {
      const std::vector<std::uint32_t>& quotas = query.partition[die];
      REPRO_ENSURE(quotas.size() == slots.size(),
                   "one way quota per process on the die");
      std::uint32_t claimed = 0;
      for (std::uint32_t w : quotas) claimed += w;
      REPRO_ENSURE(claimed <= machine_.l2.ways,
                   "partition exceeds the cache ways");
      eq = core::predict_partitioned(
          std::span<const core::SolverInput>(inputs), quotas);
    } else {
      core::SolveOptions solve_options;
      solve_options.method = options_.method;
      solve_options.cpu_share = shares;
      solve_options.fill = fill;
      solve_options.warm_start = seeds;  // empty = cold, bit-identical
      core::SolveStats stats;
      solve_options.stats = &stats;
      const std::span<const core::SolverInput> die_inputs(inputs);
      if (options_.method == core::SolveOptions::Method::kNewton) {
        try {
          eq = solver_.solve(die_inputs, solve_options);
        } catch (const Error&) {
          // Newton can stall on nearly-flat MPA curves, where the
          // bisection form cannot fail on a well-posed instance: re-solve
          // the die with it instead of failing the query, and count it.
          solve_options.method = core::SolveOptions::Method::kBisection;
          eq = solver_.solve(die_inputs, solve_options);
          ++out.solver_fallbacks;
        }
      } else {
        eq = solver_.solve(die_inputs, solve_options);
      }
      out.solver_iterations += stats.iterations;
    }

    // Assemble §4/§5: core power is the time average over the run
    // queue; the package total adds each busy core's dynamic power.
    std::size_t cursor = 0;
    for (CoreId c = 0; c < machine_.cores; ++c) {
      const std::size_t q = query.assignment.per_core[c].size();
      if (q == 0 || !on_die(c)) continue;
      Watts dyn = 0.0;
      double ips = 0.0;
      for (std::size_t slot = 0; slot < q; ++slot, ++cursor) {
        ProcessOperatingPoint point;
        point.handle = slots[cursor].handle;
        point.core = c;
        point.cpu_share = shares[cursor];
        point.prediction = eq[cursor];
        if (has_power)
          point.dynamic_power = core::process_dynamic_power(
              *snapshot.power_, snapshot.entry_of(point.handle).profile.alone,
              eq[cursor].spi, eq[cursor].mpa);
        dyn += point.dynamic_power;
        ips += 1.0 / eq[cursor].spi;
        out.processes.push_back(std::move(point));
      }
      const double avg_dyn = dyn / static_cast<double>(q);
      if (has_power) {
        out.core_power[c] += avg_dyn;
        out.total_power += avg_dyn;
      }
      out.throughput_ips += ips / static_cast<double>(q);
    }
  }
}

SystemPrediction ModelEngine::predict(const CoScheduleQuery& query) const {
  // Pin the current epoch for the duration of the solve; concurrent
  // revisions publish fresh snapshots without touching this one.
  const std::shared_ptr<const EngineSnapshot> snap = snapshot();
  return predict(*snap, query);
}

SystemPrediction ModelEngine::predict(const EngineSnapshot& snapshot,
                                      const CoScheduleQuery& query) const {
  ScratchLease lease;
  SystemPrediction out;
  predict_on(snapshot, query, lease.get(), out);
  return out;
}

std::vector<SystemPrediction> ModelEngine::predict_batch(
    std::span<const CoScheduleQuery> queries) const {
  // One snapshot resolve for the whole batch: every candidate prices
  // against the same epoch no matter how many revisions land mid-run.
  const std::shared_ptr<const EngineSnapshot> snap = snapshot();
  return predict_batch(*snap, queries);
}

std::vector<SystemPrediction> ModelEngine::predict_batch(
    const EngineSnapshot& snapshot,
    std::span<const CoScheduleQuery> queries) const {
  std::vector<SystemPrediction> out(queries.size());
  predict_each(
      snapshot, queries.size(),
      [&](std::size_t i, CoScheduleQuery&) -> const CoScheduleQuery& {
        return queries[i];
      },
      [&](std::size_t i, const SystemPrediction& p) { out[i] = p; });
  return out;
}

void ModelEngine::predict_each(const EngineSnapshot& snapshot, std::size_t n,
                               QuerySource query_of,
                               PredictionSink sink) const {
  const auto price = [&](std::size_t i) {
    ScratchLease lease;
    detail::PricingScratch& scratch = lease.get();
    const CoScheduleQuery& query = query_of(i, scratch.query);
    predict_on(snapshot, query, scratch, scratch.prediction);
    sink(i, scratch.prediction);
  };
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < n; ++i) price(i);
  } else {
    pool_->parallel_for(n, price);
  }
}

ModelEngine::CacheStats ModelEngine::cache_stats() const {
  CacheStats s;
  // relaxed: statistics snapshot; the three counters need not be
  // mutually consistent and order nothing.
  s.hits = cache_hits_.load(std::memory_order_relaxed);
  s.misses = cache_misses_.load(std::memory_order_relaxed);  // relaxed: ditto
  s.invalidations =
      cache_invalidations_.load(std::memory_order_relaxed);  // relaxed: ditto
  return s;
}

}  // namespace repro::engine

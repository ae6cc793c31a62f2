#include "repro/engine/model_engine.hpp"

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

ModelEngine::ModelEngine(sim::MachineConfig machine, EngineOptions options)
    : machine_(std::move(machine)),
      options_(options),
      solver_(machine_.l2.ways, options_.equilibrium) {
  machine_.validate();
  if (options_.threads != 1)
    pool_ = std::make_unique<common::ThreadPool>(options_.threads);
  // Publish the initial (empty, epoch 0) snapshot so snapshot() is
  // never null.
  common::MutexLock lock(builder_mutex_);
  auto snap = std::make_shared<EngineSnapshot>();
  published_.store(std::move(snap), std::memory_order_release);
}

ModelEngine::ModelEngine(sim::MachineConfig machine, core::PowerModel power,
                         EngineOptions options)
    : ModelEngine(std::move(machine), options) {
  REPRO_ENSURE(power.cores() == machine_.cores,
               "power model trained for a different core count");
  common::MutexLock lock(builder_mutex_);
  power_.emplace(std::move(power));
  publish();
}

ModelEngine::~ModelEngine() = default;

std::shared_ptr<const EngineSnapshot> ModelEngine::snapshot() const {
  return published_.load(std::memory_order_acquire);
}

void ModelEngine::publish() {
  auto snap = std::make_shared<EngineSnapshot>();
  snap->registry_ = registry_;  // shared entries: cheap pointer copies
  snap->by_name_ = by_name_;
  snap->power_ = power_;
  snap->power_revision_ = power_revision_;
  snap->epoch_ = ++epoch_;
  published_.store(std::move(snap), std::memory_order_release);
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
  REPRO_ENSURE(!profile.name.empty(), "process needs a name");
  if (profile.features.name.empty()) profile.features.name = profile.name;
  // Validate up front: a bad histogram or SPI law fails here with the
  // process named, not deep inside a later fill-curve integral.
  profile.features.validate();

  common::MutexLock lock(builder_mutex_);
  const auto it = by_name_.find(profile.name);
  if (it != by_name_.end()) {
    // Replacement: same handle, fresh Entry — the embedded once_flag is
    // what invalidates the memoized artifacts. The old Entry stays
    // alive for as long as some snapshot still references it.
    registry_[it->second] = std::make_shared<Entry>(std::move(profile));
    // relaxed: monitoring counter; no reader orders state off it.
    cache_invalidations_.fetch_add(1, std::memory_order_relaxed);
    publish();
    return it->second;
  }
  const auto handle = static_cast<ProcessHandle>(registry_.size());
  by_name_.emplace(profile.name, handle);
  registry_.push_back(std::make_shared<Entry>(std::move(profile)));
  publish();
  return handle;
}

void ModelEngine::install(ProcessHandle handle, core::ProcessProfile profile) {
  REPRO_ENSURE(handle < registry_.size(), "unknown process handle");
  const std::string old_name = registry_[handle]->profile.name;
  if (profile.name != old_name) {
    const auto it = by_name_.find(profile.name);
    REPRO_ENSURE(it == by_name_.end() || it->second == handle,
                 "rename collides with another registered process");
    by_name_.erase(old_name);
    by_name_.emplace(profile.name, handle);
  }
  // Fresh Entry = fresh once_flag: the next prediction that touches
  // this handle rebuilds the fill curve from the new revision.
  registry_[handle] = std::make_shared<Entry>(std::move(profile));
  // relaxed: monitoring counter; no reader orders state off it.
  cache_invalidations_.fetch_add(1, std::memory_order_relaxed);
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
    // Validate before taking the builder lock or mutating anything: a
    // refusal leaves the registry, the name index, and every memoized
    // artifact exactly as they were, and publishes nothing.
    try {
      REPRO_ENSURE(!profile.name.empty(), "process needs a name");
      if (profile.features.name.empty()) profile.features.name = profile.name;
      profile.features.validate();
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
      // install() still validates handle/rename under the lock; those
      // checks need the builder state but run before any mutation.
      install(handle, std::move(profile));
      publish();
      result.applied = true;
      result.epoch = epoch_;
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
  if (result.reason.empty()) {
    common::MutexLock lock(builder_mutex_);
    if (!power_.has_value()) {
      result.reason =
          "cannot revise power on an engine built without a power model";
      result.epoch = epoch_;
    } else {
      power_.emplace(std::move(power));
      ++power_revision_;
      publish();
      result.applied = true;
      result.epoch = epoch_;
    }
    return result;
  }
  result.epoch = snapshot()->epoch();
  return result;
}

void ModelEngine::restore(std::vector<core::ProcessProfile> profiles,
                          std::optional<core::PowerModel> power,
                          std::uint64_t power_revision, std::uint64_t epoch) {
  // Validate everything before taking the lock: a refused restore must
  // leave the fresh engine exactly as constructed.
  for (core::ProcessProfile& p : profiles) {
    REPRO_ENSURE(!p.name.empty(), "process needs a name");
    if (p.features.name.empty()) p.features.name = p.name;
    p.features.validate();
  }
  if (power.has_value())
    REPRO_ENSURE(power->cores() == machine_.cores,
                 "checkpoint power model trained for a different core count");

  common::MutexLock lock(builder_mutex_);
  REPRO_ENSURE(registry_.empty() && power_revision_ == 0,
               "restore requires a freshly-constructed engine");
  if (power.has_value()) {
    REPRO_ENSURE(
        power_.has_value(),
        "checkpoint carries a power model but the engine was built "
        "without one");
    power_.emplace(std::move(*power));
  }
  for (core::ProcessProfile& p : profiles) {
    const auto handle = static_cast<ProcessHandle>(registry_.size());
    REPRO_ENSURE(by_name_.emplace(p.name, handle).second,
                 "checkpoint registers a duplicate name: " + p.name);
    registry_.push_back(std::make_shared<Entry>(std::move(p)));
  }
  power_revision_ = power_revision;
  // publish() bumps epoch_ by one; land at `epoch` or later so the
  // counter never moves backwards across a crash.
  if (epoch > 0 && epoch - 1 > epoch_) epoch_ = epoch - 1;
  publish();
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

SystemPrediction ModelEngine::predict_on(const EngineSnapshot& snapshot,
                                         const CoScheduleQuery& query) const {
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
  std::vector<std::size_t> slot_offset(machine_.cores + 1, 0);
  for (CoreId c = 0; c < machine_.cores; ++c)
    slot_offset[c + 1] = slot_offset[c] + query.assignment.per_core[c].size();

  const bool has_power = snapshot.power_.has_value();
  SystemPrediction out;
  out.processes.reserve(query.assignment.process_count());
  if (has_power) {
    out.core_power.assign(machine_.cores, snapshot.power_->idle_core());
    out.total_power = snapshot.power_->idle_total();
  }

  // Per-die solver inputs, gathered into buffers sized once for the
  // whole query and refilled die by die.
  struct Slot {
    ProcessHandle handle;
    CoreId core;
  };
  const std::size_t scheduled = query.assignment.process_count();
  std::vector<Slot> slots;
  std::vector<core::SolverInput> inputs;
  std::vector<double> shares;
  std::vector<const math::PiecewiseLinear*> fill;
  std::vector<double> seeds;
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
  return out;
}

SystemPrediction ModelEngine::predict(const CoScheduleQuery& query) const {
  // Pin the current epoch for the duration of the solve; concurrent
  // revisions publish fresh snapshots without touching this one.
  const std::shared_ptr<const EngineSnapshot> snap = snapshot();
  return predict_on(*snap, query);
}

SystemPrediction ModelEngine::predict(const EngineSnapshot& snapshot,
                                      const CoScheduleQuery& query) const {
  return predict_on(snapshot, query);
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
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < queries.size(); ++i)
      out[i] = predict_on(snapshot, queries[i]);
  } else {
    pool_->parallel_for(queries.size(), [&](std::size_t i) {
      out[i] = predict_on(snapshot, queries[i]);
    });
  }
  return out;
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

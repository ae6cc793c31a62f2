// Shared vocabulary of the perfbench driver: run options, sample
// series with median/tail percentiles, the result record every
// workload fills in, and the in-memory span tracer of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "repro/core/power_model.hpp"
#include "repro/core/profiler.hpp"
#include "repro/engine/model_engine.hpp"
#include "repro/math/piecewise.hpp"
#include "repro/sim/machine.hpp"
#include "repro/sim/system.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the stream workload's journals (created if missing).
  std::string journal_dir = "perfbench-journal";
  /// Worker threads for the pooled engine (sweep, govern).
  std::size_t threads = 1;
  /// Shrinks every input so the benchmark's own tests can run each
  /// workload in about a second.
  bool tiny = false;
};

/// A bag of samples; quantiles use the nearest-rank rule.
class Series {
 public:
  void add(double x) { v_.push_back(x); }
  std::size_t size() const { return v_.size(); }
  double sum() const;
  double mean() const;
  double quantile(double p) const;  // p in [0, 100]; 0 when empty
  double median() const { return quantile(50.0); }
  /// The samples in [begin, end) of arrival order.
  Series slice(std::size_t begin, std::size_t end) const;

 private:
  std::vector<double> v_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  /// For tails: the percentile the value reports; 0 otherwise.
  double percentile = 0.0;
};

struct Check {
  std::string name;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string detail;  // first failure, if any

  void expect(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (detail.empty()) detail = why;
    }
  }
};

struct Result {
  std::vector<Metric> metrics;
  /// A deque, so references from check() stay valid as checks are added.
  std::deque<Check> checks;
  /// Client operations attempted / failed (calls, or windows pushed);
  /// their quotient is failed_ratio.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::string>> notes;

  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples, double percentile = 0.0);
  /// `stem`_p50 and `stem`_tail of a series, scaled by `scale`. The
  /// samples (in arrival order) are cut into equal runs of at least
  /// `segment` samples and each metric is the median of the per-run
  /// values, so one disturbed stretch of a run cannot move it. The
  /// tail's percentile is chosen on `segment` (the fewest samples a run
  /// can hold), so it does not change with the host's speed.
  void latency(const std::string& stem, const Series& s, double scale,
               const std::string& unit, std::size_t segment);
  void note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
  Check& check(const std::string& name);
};

/// In-memory span recorder for the traced run. Spans are recorded only
/// from the benchmark's own code, around calls into public functions,
/// and kept until exit.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    Clock::time_point start;
    Clock::time_point end;
    std::int64_t parent = -1;
    std::uint64_t op = 0;
  };

  std::int64_t begin(const char* name, std::int64_t parent, std::uint64_t op);
  void end(std::int64_t id) {
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
  }
  /// Record an already-timed span (work classified after the call).
  void record(const char* name, Clock::time_point start,
              Clock::time_point end, std::int64_t parent, std::uint64_t op);

  /// Inclusive durations, in seconds, of every span named `name`.
  Series durations(const std::string& name) const;
  /// Σ self time (duration minus direct children) over the spans whose
  /// name starts with `prefix`.
  double self_time(const std::string& prefix) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::int64_t parent = -1,
        std::uint64_t op = 0)
      : t_(t), id_(t.begin(name, parent, op)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int64_t id() const { return id_; }

 private:
  Tracer& t_;
  std::int64_t id_;
};

// ---------------------------------------------------------------------
// Inputs (generator.cpp): everything derived from the workload seed.

inline constexpr std::size_t kProcesses = 8;

/// The fixed-coefficient Eq. 9 model every workload's engine carries.
repro::core::PowerModel fixed_power_model(std::uint32_t cores);

struct Inputs {
  repro::sim::MachineConfig machine;
  /// Baseline profile of each process (revision 0), in handle order.
  std::vector<repro::core::ProcessProfile> profiles;
  /// Suite spec index each process starts as.
  std::vector<std::size_t> spec_of;
};

/// Machine and baseline profiles: a seeded permutation of the eight
/// main-suite specs over processes proc0..proc7.
Inputs make_inputs(std::uint64_t seed);

/// Profile of suite spec `spec` running as process `pid`, with
/// analytic features fitted at the machine's default clock.
repro::core::ProcessProfile analytic_profile(const Inputs& in,
                                             std::size_t pid,
                                             std::size_t spec,
                                             std::uint64_t revision);

/// sweep: `count` random co-schedules over the eight processes; some
/// time-share a core, a quarter pin a per-die way partition.
std::vector<repro::engine::CoScheduleQuery> make_sweep_queries(
    const Inputs& in, std::uint64_t seed, std::size_t count);

/// `k` indices drawn uniformly from [0, n): the seeded subsets the
/// output checks and the traced run sample. `purpose` decorrelates
/// subsets drawn from one seed.
std::vector<std::size_t> seeded_sample(std::uint64_t seed,
                                       std::uint64_t purpose, std::size_t n,
                                       std::size_t k);

/// govern: `phases` later phases of every process — each one behaves
/// like another suite spec (revision numbers are set when applied).
std::vector<std::vector<repro::core::ProcessProfile>> make_govern_phases(
    const Inputs& in, std::uint64_t seed, std::size_t phases);

/// stream: `windows` whole-machine windows in which every process
/// follows its analytic MPA curve and SPI law through scripted phase
/// switches and DVFS steps, passed through a seeded low-rate
/// FaultInjector and split into per-die slices (lane = die).
struct StreamInputs {
  /// Delivered windows, each as its two die slices in lane order.
  std::vector<std::vector<repro::sim::Sample>> windows;
  std::uint64_t generated = 0;  // windows before fault injection
  std::uint64_t phase_switches = 0;
  std::uint64_t dvfs_steps = 0;
  std::uint64_t faults = 0;  // injected fault events, all classes
};
StreamInputs make_stream_inputs(const Inputs& in, std::uint64_t seed,
                                std::size_t windows);

/// The co-schedule the stream workload watches: proc 2c and 2c+1
/// time-share core c.
repro::engine::CoScheduleQuery stream_query(const Inputs& in);

// ---------------------------------------------------------------------
// Set-up of the pooled engine sweep and govern query (main.cpp).

struct PooledSetup {
  std::unique_ptr<repro::engine::ModelEngine> engine;
  double seconds = 0.0;
};

/// Engine construction (default options, a pool of `threads` workers) +
/// registration + the first, artifact-warming predict (all eight
/// processes scheduled), timed.
PooledSetup pooled_set_up(const Inputs& in, std::size_t threads);

/// The setup_s sampler of sweep and govern. One sample is the mean of
/// one pooled_set_up on every CPU this process may use, each on a
/// thread pinned there: the host's CPUs differ by up to 1.5x in
/// single-thread speed, and the scheduler keeps the main thread on one
/// of them for a whole run, so a set-up timed there would report that
/// CPU's speed. Samples are taken every `every` client calls, so their
/// median spans the whole run rather than the moment it started.
class SetupSampler {
 public:
  SetupSampler(const Inputs& in, std::size_t threads, std::size_t every);
  /// Called between client calls, outside their timing.
  void tick() {
    if (++calls_ % every_ == 0) sample();
  }
  void sample();
  const Series& times() const { return times_; }

 private:
  const Inputs& in_;
  std::size_t threads_;
  std::size_t every_;
  std::vector<int> cpus_;
  std::size_t calls_ = 0;
  Series times_;
};

// ---------------------------------------------------------------------
// Output checks shared by the workloads (main.cpp).

/// Every SPI, MPA and power value finite and positive; each shared
/// die's effective sizes sum to the cache's ways within
/// EquilibriumOptions::tolerance, and a partitioned die's to its
/// quotas. Returns "" or the first defect.
std::string check_prediction(const repro::engine::ModelEngine& engine,
                             const repro::engine::CoScheduleQuery& query,
                             const repro::engine::SystemPrediction& p);
bool bit_identical(const repro::engine::SystemPrediction& a,
                   const repro::engine::SystemPrediction& b);

/// Peak resident set size of this process, MB.
double peak_rss_mb();

// ---------------------------------------------------------------------
// Traced query path (query_trace.cpp): re-price candidates serially
// through the kernels predict uses, in its order, with spans.
class QueryTracer {
 public:
  QueryTracer(const repro::engine::ModelEngine& engine, Tracer& tracer);

  /// Re-price `queries` through the kernels (traced), then through
  /// ModelEngine::predict (untraced), against the current snapshot.
  /// Counts a mismatch when the two disagree.
  void reprice(const std::vector<repro::engine::CoScheduleQuery>& queries);
  /// Adds the engine.predict / core.* per-layer metrics and the query
  /// coverage and tracing overhead.
  void report(Result& r) const;
  /// Adds only the core.* kernel metrics (the on-line path's resolves).
  void report_kernels(Result& r) const;
  std::uint64_t mismatches() const { return mismatches_; }

  /// One traced pricing (warm start honoured), with its stage spans
  /// under `parent`.
  repro::engine::SystemPrediction price(
      const repro::engine::EngineSnapshot& snap,
      const repro::engine::CoScheduleQuery& query, std::uint64_t op,
      std::int64_t parent);

 private:

  const repro::engine::ModelEngine& engine_;
  Tracer& tracer_;
  /// Fill curves (G⁻¹ and G, as the engine memoizes them) per (handle,
  /// profile revision): built on first use per revision.
  std::map<std::pair<std::uint32_t, std::uint64_t>,
           std::pair<repro::math::PiecewiseLinear, repro::math::PiecewiseLinear>>
      memo_;
  std::uint64_t candidates_ = 0;
  std::uint64_t solves_ = 0;
  std::uint64_t fallbacks_ = 0;
  std::uint64_t iterations_ = 0;
  std::uint64_t fill_builds_ = 0;
  std::uint64_t mismatches_ = 0;
  double traced_wall_ = 0.0;
  double untraced_wall_ = 0.0;
};

// ---------------------------------------------------------------------
// Workloads.
Result run_sweep(const RunOptions& opt);
Result run_govern(const RunOptions& opt);
Result run_stream(const RunOptions& opt);

}  // namespace perfbench

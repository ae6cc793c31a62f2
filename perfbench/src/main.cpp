// perfbench driver: runs one named workload from a seed and prints one
// JSON result line (prefixed "PERFBENCH_RESULT ") with every metric by
// name, unit and sample count, the output checks, and provenance.
//
//   perfbench --workload sweep|stream|govern --seed N --seconds S
//             [--trace 0|1] [--journal-dir DIR] [--tiny] [--git-sha SHA]
//
// The pooled engines (sweep, govern) get one worker per CPU this
// process may run on.
//
// Exit status is nonzero when any output check fails.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {

using namespace repro;

// --- Series / Result / Tracer -------------------------------------------

double Series::sum() const { return std::accumulate(v_.begin(), v_.end(), 0.0); }

double Series::mean() const {
  return v_.empty() ? 0.0 : sum() / static_cast<double>(v_.size());
}

double Series::quantile(double p) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(s.size()));
  const std::size_t idx =
      std::min(s.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  return s[idx];
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples,
                    double percentile) {
  metrics.push_back({name, value, unit, samples, percentile});
}

Series Series::slice(std::size_t begin, std::size_t end) const {
  Series out;
  out.v_.assign(v_.begin() + static_cast<std::ptrdiff_t>(begin),
                v_.begin() + static_cast<std::ptrdiff_t>(end));
  return out;
}

namespace {

/// The highest percentile of {50, 75, 90, 95, 99, 99.5, 99.9} with at
/// least ten of `n` samples beyond it (50 when n < 20).
double tail_percentile(std::size_t n) {
  double best = 50.0;
  for (double p : {75.0, 90.0, 95.0, 99.0, 99.5, 99.9})
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0 - 1e-9) best = p;
  return best;
}

}  // namespace

void Result::latency(const std::string& stem, const Series& s, double scale,
                     const std::string& unit, std::size_t segment) {
  segment = std::max<std::size_t>(1, std::min(segment, s.size()));
  const std::size_t segments = std::max<std::size_t>(1, s.size() / segment);
  const double p = tail_percentile(segment);
  Series p50, tail;
  for (std::size_t k = 0; k < segments; ++k) {
    const Series seg =
        s.slice(k * s.size() / segments, (k + 1) * s.size() / segments);
    p50.add(seg.median());
    tail.add(seg.quantile(p));
  }
  metric(stem + "_p50", p50.median() * scale, unit, s.size(), 50.0);
  metric(stem + "_tail", tail.median() * scale, unit, s.size(), p);
}

Check& Result::check(const std::string& name) {
  for (Check& c : checks)
    if (c.name == name) return c;
  checks.push_back({name, 0, 0, ""});
  return checks.back();
}

std::int64_t Tracer::begin(const char* name, std::int64_t parent,
                           std::uint64_t op) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.op = op;
  s.start = Clock::now();
  spans_.push_back(s);
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, std::int64_t parent,
                    std::uint64_t op) {
  spans_.push_back({name, start, end, parent, op});
}

Series Tracer::durations(const std::string& name) const {
  Series s;
  for (const Span& sp : spans_)
    if (name == sp.name) s.add(seconds_between(sp.start, sp.end));
  return s;
}

double Tracer::self_time(const std::string& prefix) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& sp : spans_)
    if (sp.parent >= 0)
      child[static_cast<std::size_t>(sp.parent)] +=
          seconds_between(sp.start, sp.end);
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (std::strncmp(spans_[i].name, prefix.c_str(), prefix.size()) == 0)
      total += seconds_between(spans_[i].start, spans_[i].end) - child[i];
  return total;
}

// --- Output checks ------------------------------------------------------

namespace {

bool positive(double x) { return std::isfinite(x) && x > 0.0; }

}  // namespace

std::string check_prediction(const engine::ModelEngine& engine,
                             const engine::CoScheduleQuery& query,
                             const engine::SystemPrediction& p) {
  const sim::MachineConfig& m = engine.machine();
  if (p.processes.size() != query.assignment.process_count())
    return "prediction has the wrong number of processes";
  for (const engine::ProcessOperatingPoint& pt : p.processes) {
    if (!positive(pt.prediction.spi)) return "non-positive or non-finite SPI";
    if (!positive(pt.prediction.mpa)) return "non-positive or non-finite MPA";
    if (!std::isfinite(pt.dynamic_power)) return "non-finite dynamic power";
  }
  if (engine.has_power_model()) {
    for (Watts w : p.core_power)
      if (!positive(w)) return "non-positive or non-finite core power";
    if (!positive(p.total_power)) return "non-positive or non-finite power";
  }
  const double tol = engine.options().equilibrium.tolerance;
  std::vector<double> die_sum(m.dies, 0.0);
  std::vector<bool> die_busy(m.dies, false);
  for (const engine::ProcessOperatingPoint& pt : p.processes) {
    die_sum[m.core_to_die[pt.core]] += pt.prediction.effective_size;
    die_busy[m.core_to_die[pt.core]] = true;
  }
  for (DieId d = 0; d < m.dies; ++d) {
    if (!die_busy[d]) continue;
    double want = static_cast<double>(m.l2.ways);
    if (!query.partition.empty() && !query.partition[d].empty()) {
      want = 0.0;
      for (std::uint32_t w : query.partition[d]) want += w;
    }
    if (!(std::abs(die_sum[d] - want) <= tol)) {
      std::ostringstream os;
      os.precision(17);
      os << "die " << d << " effective sizes sum to " << die_sum[d]
         << ", want " << want;
      return os.str();
    }
  }
  return "";
}

bool bit_identical(const engine::SystemPrediction& a,
                   const engine::SystemPrediction& b) {
  if (a.processes.size() != b.processes.size()) return false;
  for (std::size_t i = 0; i < a.processes.size(); ++i) {
    const auto& pa = a.processes[i];
    const auto& pb = b.processes[i];
    if (pa.handle != pb.handle || pa.core != pb.core ||
        pa.cpu_share != pb.cpu_share ||
        pa.prediction.effective_size != pb.prediction.effective_size ||
        pa.prediction.mpa != pb.prediction.mpa ||
        pa.prediction.spi != pb.prediction.spi ||
        pa.prediction.aps != pb.prediction.aps ||
        pa.dynamic_power != pb.dynamic_power)
      return false;
  }
  return a.core_power == b.core_power && a.total_power == b.total_power &&
         a.throughput_ips == b.throughput_ips &&
         a.solver_iterations == b.solver_iterations;
}

PooledSetup pooled_set_up(const Inputs& in, std::size_t threads) {
  PooledSetup s;
  const auto t0 = Clock::now();
  engine::EngineOptions eo;
  eo.threads = threads;
  s.engine = std::make_unique<engine::ModelEngine>(
      in.machine, fixed_power_model(in.machine.cores), eo);
  for (const core::ProcessProfile& p : in.profiles)
    s.engine->register_process(p);
  (void)s.engine->predict(stream_query(in));
  s.seconds = seconds_since(t0);
  return s;
}

namespace {

std::vector<int> allowed_cpus() {
  std::vector<int> out;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) out.push_back(c);
  if (out.empty()) out.push_back(-1);  // unknown: run unpinned
  return out;
}

}  // namespace

SetupSampler::SetupSampler(const Inputs& in, std::size_t threads,
                           std::size_t every)
    : in_(in), threads_(threads), every_(every), cpus_(allowed_cpus()) {}

void SetupSampler::sample() {
  double sum = 0.0;
  for (const int cpu : cpus_) {
    std::exception_ptr error;
    std::thread t([&] {
      try {
        if (cpu >= 0) {
          cpu_set_t one;
          CPU_ZERO(&one);
          CPU_SET(cpu, &one);
          sched_setaffinity(0, sizeof(one), &one);  // best effort
        }
        sum += pooled_set_up(in_, threads_).seconds;
      } catch (...) {
        error = std::current_exception();
      }
    });
    t.join();
    if (error) std::rethrow_exception(error);
  }
  times_.add(sum / static_cast<double>(cpus_.size()));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// Every per-layer metric: name and unit. The traced run prints each.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"engine.predict.us_p50", "us"},
      {"engine.predict_batch.parallel_eff", "ratio"},
      {"engine.artifact.hit_ratio", "ratio"},
      {"engine.try_apply.us_p50", "us"},
      {"engine.governor.candidates_per_plan", "count"},
      {"engine.governor.overhead_ratio", "ratio"},
      {"core.solve.us_p50", "us"},
      {"core.solve.iterations_mean", "count"},
      {"core.solve.fallback_ratio", "ratio"},
      {"core.fill_curve.us_p50", "us"},
      {"core.fill_curve.builds", "count"},
      {"core.rescale.us_p50", "us"},
      {"core.power_assembly.us_p50", "us"},
      {"online.sanitize.us_p50", "us"},
      {"online.sanitize.quarantine_ratio", "ratio"},
      {"online.builder.us_p50", "us"},
      {"online.fit.us_p50", "us"},
      {"online.resolve.us_p50", "us"},
      {"online.journal.append_us_p50", "us"},
      {"online.journal.sync_us_p50", "us"},
      {"online.journal.bytes_per_event", "bytes"},
      {"online.power_refit.us_p50", "us"},
      {"online.power_refit.accept_ratio", "ratio"},
      {"online.recover.events_per_s", "1/s"},
      {"online.push.blocked_ratio", "ratio"},
      {"online.backlog.max_windows", "count"},
      {"trace.query.coverage", "ratio"},
      {"trace.online.coverage", "ratio"},
      {"trace.overhead_ratio", "ratio"},
  };
  return names;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

void print_result(const RunOptions& opt, const Result& r,
                  const std::string& git_sha, std::size_t nproc) {
  std::ostringstream os;
  os << "{\"workload\":\"" << json_escape(opt.workload) << "\",\"seed\":"
     << opt.seed << ",\"trace\":" << (opt.trace ? 1 : 0)
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed;
  os << ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    os << (i ? "," : "") << "\"" << json_escape(m.name)
       << "\":{\"value\":" << json_number(m.value) << ",\"unit\":\""
       << json_escape(m.unit) << "\",\"samples\":" << m.samples;
    if (m.percentile > 0.0)
      os << ",\"percentile\":" << json_number(m.percentile);
    os << "}";
  }
  os << "},\"checks\":[";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    os << (i ? "," : "") << "{\"name\":\"" << json_escape(c.name)
       << "\",\"attempted\":" << c.attempted << ",\"failed\":" << c.failed
       << ",\"detail\":\"" << json_escape(c.detail) << "\"}";
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  os << "],\"provenance\":{\"git_sha\":\"" << json_escape(git_sha)
     << "\",\"compiler\":\"" << json_escape(PERFBENCH_COMPILER)
     << "\",\"build_type\":\"" << json_escape(build_type)
     << "\",\"release_build\":" << (build_type == "Release" ? "true" : "false")
     << ",\"nproc\":" << nproc << ",\"threads\":" << opt.threads
     << ",\"tiny\":" << (opt.tiny ? "true" : "false") << "},\"notes\":{";
  for (std::size_t i = 0; i < r.notes.size(); ++i)
    os << (i ? "," : "") << "\"" << json_escape(r.notes[i].first) << "\":\""
       << json_escape(r.notes[i].second) << "\"";
  os << "}}";
  std::printf("PERFBENCH_RESULT %s\n", os.str().c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload sweep|stream|govern --seed N "
               "--seconds S [--trace 0|1] [--journal-dir DIR] [--tiny] "
               "[--git-sha SHA]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opt;
  const std::size_t nproc = allowed_cpus().size();
  opt.threads = nproc;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") opt.workload = value();
      else if (a == "--seed") opt.seed = std::stoull(value());
      else if (a == "--seconds") opt.seconds = std::stod(value());
      else if (a == "--trace") opt.trace = std::stoi(value()) != 0;
      else if (a == "--journal-dir") opt.journal_dir = value();
      else if (a == "--git-sha") git_sha = value();
      else if (a == "--tiny") opt.tiny = true;
      else return usage();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      return usage();
    }
  }
  if (opt.seconds <= 0.0) return usage();

  Result r;
  try {
    if (opt.workload == "sweep") r = run_sweep(opt);
    else if (opt.workload == "govern") r = run_govern(opt);
    else if (opt.workload == "stream") r = run_stream(opt);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s workload aborted: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }

  r.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
  r.metric("failed_ratio",
           r.attempted > 0 ? static_cast<double>(r.failed) /
                                 static_cast<double>(r.attempted)
                           : 1.0,
           "ratio", r.attempted);
  if (opt.trace) {
    // Every per-layer name appears. A layer this workload does not
    // exercise reads 0 with 0 samples; read it on the workload that owns
    // it (README's layer map).
    for (const auto& [name, unit] : per_layer_metrics())
      if (std::none_of(r.metrics.begin(), r.metrics.end(),
                       [&](const Metric& m) { return m.name == name; }))
        r.metric(name, 0.0, unit, 0);
  }
  std::uint64_t check_failures = 0;
  for (const Check& c : r.checks) check_failures += c.failed;
  print_result(opt, r, git_sha, nproc);
  return (check_failures == 0 && r.failed == 0 && r.attempted > 0) ? 0 : 1;
}

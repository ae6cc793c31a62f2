// cmpmodel — command-line front end for the modeling framework.
//
// Drives the paper's deployment workflow from a shell:
//
//   cmpmodel profile  --machine server --workloads gzip,mcf --store s.txt
//   cmpmodel train    --machine server --store s.txt
//   cmpmodel predict  --machine server --store s.txt --procs gzip,mcf
//   cmpmodel estimate --machine server --store s.txt
//                     --assign "gzip,mcf;vpr;;equake"
//   cmpmodel assign   --machine server --store s.txt
//                     --jobs gzip,mcf,art,equake [--objective energy]
//   cmpmodel simulate --machine server --assign "gzip;mcf" [--seconds 0.3]
//   cmpmodel watch    --machine workstation --assign "gzip>art;mcf"
//                     [--seconds 1.5] [--store s.txt] [--json on]
//                     [--fault-rate 0.05] [--faults drop,wrap,spike]
//                     [--fault-seed 1] [--sanitize on|off]
//                     [--power-refit on|off] [--ingest inline|ring]
//                     [--shards N] [--coalesce on] [--dump-bad on]
//                     [--journal j.log] [--checkpoint c.txt]
//                     [--fsync every_n|on_revision|off] [--fsync-every 32]
//                     [--checkpoint-every 64] [--recover on|off]
//                     [--dvfs "0.5:0:1.2e9;1.0:0:2.4e9"]
//   cmpmodel checkpoint --machine server --checkpoint c.txt
//                       [--journal j.log] [--json on]
//
// Machines: server (4-core/2-die), workstation (2-core), laptop
// (2-core 12-way). --assign lists per-core run queues separated by
// ';' (empty = idle core), processes within a core separated by ','.
//
// watch runs the *streaming* pipeline end to end: the named processes
// execute in the simulator while their 30 ms HPC windows flow through
// SampleStream → ProfileBuilder → ModelEngine, emitting versioned
// profile revisions on confirmed phase changes and periodic refits,
// each followed by a warm-started re-solve of the running co-schedule.
// A process name may chain specs with '>' (e.g. "gzip>art") to play
// phases back to back. With --store, the freshest revisions are saved
// (and an existing store's power model prices each re-solve).
// --fault-rate injects faults into the sample stream through the
// deterministic FaultInjector (per-window probability, applied to each
// class in --faults: drop,dup,reorder,wrap,scale,spike,zero) so the
// hardened pipeline's sanitizer and degradation policy can be watched
// at work; --sanitize off disables the hardening for comparison. The
// end-of-run summary prints the PipelineHealth counters. With
// --json on, stdout carries exactly one JSON object per sample window
// (window index, time, a single "events" array of profile and power
// revisions tagged by "kind" and interleaved in global seq order, the
// live measured-vs-predicted power error, and the PipelineHealth
// counter deltas) followed by one {"summary":...} object — a
// machine-diffable trace for CI; human chatter moves to stderr.
// --ingest ring routes windows through the pipeline's bounded SPSC
// ring onto its worker thread instead of processing them inline.
// --shards N (> 1) runs the sharded pipeline (ISSUE 7): each machine
// window is split into per-die slices, one producer lane per die, and
// the lanes route to N PipelineShards whose batches the coordinator
// merges back into one deterministic event log — with --shards 1 (the
// default) the single-stream pipeline runs, bit-identical to the
// pre-sharding watch. --coalesce on collapses the re-solves of a
// same-window multi-die phase coincidence into one (the summary's
// "coalesced" count). --dump-bad on dumps the quarantine forensics
// ring — the last quarantined windows with their sanitizer verdicts —
// after the run.
//
// --dvfs plays a deterministic DVFS schedule while the watch runs:
// ';'-separated "t:core:hz" steps retime the named core from virtual
// time t on (steps land on window boundaries, so windows stay
// frequency-pure). The builders absorb each step by rescaling (the
// summary's "frequency steps" count) instead of booking a phase
// change, and with --json every window object carries the per-core
// "core_frequency" vector it was sampled under.
//
// --journal arms the crash-safe event journal (every applied revision
// framed + CRC-32C checksummed, fsync per --fsync/--fsync-every);
// --checkpoint adds atomic engine checkpoints every --checkpoint-every
// state-changing events (applied revisions), with or without --journal.
// A watch killed mid-run — even SIGKILL mid-write — restarts with
// --recover on (default) from the newest valid checkpoint plus a
// journal replay, torn tails cut; the summary's
// durability line (and the JSON summary's "durability" object)
// reports the counters. In ring mode a shard whose worker hits an
// error (with --sanitize off, a revision the engine refuses) stops for
// good: its windows count as dropped, the summary still prints with
// "shards_failed", then the cause goes to stderr and the exit status
// is nonzero — as when inline ingest throws. The standalone
// `cmpmodel checkpoint` compacts durable state offline: recover,
// write a fresh checkpoint, truncate the journal.
//
// When the store supplies a power model, every window that carries
// ground truth (a finite, positive measured clamp power) also reports
// the current model's prediction error against it — the error uses an
// epsilon-floored denominator (1 mW), so the column is always finite —
// and, unless --power-refit off, the windows stream through the
// on-line PowerRefitter: accepted candidates revise the engine's Eq. 9
// model live (quality-gated, validate-before-mutate) and appear in the
// trace as "kind":"power" events in the same seq space as profile
// revisions.
//
// predict, estimate and assign run on the ModelEngine facade: predict
// places the named processes one per core starting at core 0 (so on
// the 4-core server the first two share die 0's cache), estimate
// prices a full assignment — per-process operating points, per-core
// power, and total power in one prediction — and assign searches every
// placement of --jobs (a name may repeat; each occurrence is one job)
// for the minimum --objective power|energy. assign prices with the
// same predictions as estimate, so the watts it reports for the
// mapping it picks are the watts estimate prints for that mapping.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "repro/core/combined.hpp"
#include "repro/core/perf_model.hpp"
#include "repro/core/power_model.hpp"
#include "repro/core/profiler.hpp"
#include "repro/core/serialize.hpp"
#include "repro/engine/assignment.hpp"
#include "repro/engine/checkpoint.hpp"
#include "repro/engine/model_engine.hpp"
#include "repro/math/stats.hpp"
#include "repro/online/sharded_pipeline.hpp"
#include "repro/sim/fault_injector.hpp"
#include "repro/sim/system.hpp"
#include "repro/workload/generator.hpp"
#include "repro/workload/phased.hpp"
#include "repro/workload/spec.hpp"

namespace {

using namespace repro;

struct MachineChoice {
  sim::MachineConfig machine;
  power::OracleConfig oracle;
};

MachineChoice machine_by_name(const std::string& name) {
  if (name == "server")
    return {sim::four_core_server(), power::oracle_for_four_core_server()};
  if (name == "workstation")
    return {sim::two_core_workstation(),
            power::oracle_for_two_core_workstation()};
  if (name == "laptop")
    return {sim::core2_duo_laptop(), power::oracle_for_core2_duo_laptop()};
  throw Error("unknown machine: " + name +
              " (expected server|workstation|laptop)");
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    out.push_back(text.substr(start, pos - start));
    if (pos == std::string::npos) break;
    start = pos + 1;
  }
  return out;
}

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  const std::string& require(const std::string& key) const {
    const auto it = options.find(key);
    REPRO_ENSURE(it != options.end(), "missing --" + key);
    return it->second;
  }
  std::string get(const std::string& key, std::string fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
};

Args parse(int argc, char** argv) {
  REPRO_ENSURE(argc >= 2, "usage: cmpmodel <command> [--key value]...");
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    REPRO_ENSURE(key.rfind("--", 0) == 0 && i + 1 < argc,
                 "expected --key value, got: " + key);
    args.options[key.substr(2)] = argv[++i];
  }
  return args;
}

core::ModelStore load_store_or_die(const std::string& path) {
  auto store = core::load_store(path);
  REPRO_ENSURE(store.has_value(), "cannot read store: " + path);
  return *store;
}

std::vector<core::ProcessProfile> lookup_profiles(
    const core::ModelStore& store, const std::vector<std::string>& names) {
  std::vector<core::ProcessProfile> out;
  for (const std::string& name : names) {
    const core::ProcessProfile* p = store.find(name);
    REPRO_ENSURE(p != nullptr, "no profile for '" + name +
                                   "' in store — run `cmpmodel profile`");
    out.push_back(*p);
  }
  return out;
}

/// Parse "gzip,mcf;vpr;;equake" into an Assignment plus the profile
/// list it references.
core::Assignment parse_assignment(const std::string& text,
                                  std::uint32_t cores,
                                  std::vector<std::string>* names) {
  const std::vector<std::string> per_core = split(text, ';');
  REPRO_ENSURE(per_core.size() <= cores,
               "assignment names more cores than the machine has");
  core::Assignment a = core::Assignment::empty(cores);
  for (std::size_t c = 0; c < per_core.size(); ++c) {
    if (per_core[c].empty()) continue;
    for (const std::string& name : split(per_core[c], ',')) {
      REPRO_ENSURE(!name.empty(), "empty process name in assignment");
      a.per_core[c].push_back(names->size());
      names->push_back(name);
    }
  }
  return a;
}

int cmd_profile(const Args& args) {
  const MachineChoice m = machine_by_name(args.require("machine"));
  const std::string path = args.require("store");
  core::ModelStore store;
  if (auto existing = core::load_store(path)) store = *existing;

  const core::StressmarkProfiler profiler(m.machine, m.oracle);
  for (const std::string& name : split(args.require("workloads"), ',')) {
    if (store.find(name) != nullptr) {
      std::printf("%-8s already in store, skipping\n", name.c_str());
      continue;
    }
    std::printf("profiling %s...\n", name.c_str());
    store.profiles.push_back(profiler.profile(workload::find_spec(name)));
  }
  core::save_store(path, store);
  std::printf("wrote %zu profiles to %s\n", store.profiles.size(),
              path.c_str());
  return 0;
}

int cmd_train(const Args& args) {
  const MachineChoice m = machine_by_name(args.require("machine"));
  const std::string path = args.require("store");
  core::ModelStore store;
  if (auto existing = core::load_store(path)) store = *existing;

  std::printf("training Eq. 9 power model on %s...\n",
              m.machine.name.c_str());
  core::PowerTrainerOptions options;
  options.run_per_workload = 0.3;
  options.run_per_microbench = 0.12;
  store.power_model = core::PowerModel::train(
      m.machine, m.oracle,
      {"gzip", "vpr", "mcf", "bzip2", "twolf", "art", "equake", "ammp"},
      options);
  core::save_store(path, store);
  const core::PowerModel& pm = *store.power_model;
  std::printf("idle %.2f W; c = [%.3g %.3g %.3g %.3g %.3g]\n",
              pm.idle_total(), pm.coefficients()[0], pm.coefficients()[1],
              pm.coefficients()[2], pm.coefficients()[3],
              pm.coefficients()[4]);
  return 0;
}

/// ModelEngine over the store: registers the named profiles (deduped)
/// and returns the engine plus one handle per name.
std::unique_ptr<engine::ModelEngine> make_engine(
    const MachineChoice& m, const core::ModelStore& store,
    const std::vector<std::string>& names,
    std::vector<engine::ProcessHandle>* handles) {
  auto eng = store.power_model.has_value()
                 ? std::make_unique<engine::ModelEngine>(m.machine,
                                                         *store.power_model)
                 : std::make_unique<engine::ModelEngine>(m.machine);
  for (const core::ProcessProfile& p : lookup_profiles(store, names))
    eng->register_process(p);
  for (const std::string& name : names) handles->push_back(*eng->find(name));
  return eng;
}

int cmd_predict(const Args& args) {
  const MachineChoice m = machine_by_name(args.require("machine"));
  const core::ModelStore store = load_store_or_die(args.require("store"));
  const std::vector<std::string> names =
      split(args.require("procs"), ',');
  REPRO_ENSURE(names.size() <= m.machine.cores,
               "more processes than cores — use `cmpmodel estimate` with "
               "an explicit --assign for time sharing");

  std::vector<engine::ProcessHandle> handles;
  const auto eng_ptr = make_engine(m, store, names, &handles);
  const engine::ModelEngine& eng = *eng_ptr;
  engine::CoScheduleQuery query;
  query.assignment = core::Assignment::empty(m.machine.cores);
  for (std::size_t i = 0; i < handles.size(); ++i)
    query.assignment.per_core[i].push_back(handles[i]);
  const engine::SystemPrediction pred = eng.predict(query);

  std::printf("%-10s %6s %8s %8s %12s %14s\n", "process", "core", "S(ways)",
              "MPA", "SPI (ns)", "IPC-equivalent");
  for (const engine::ProcessOperatingPoint& p : pred.processes)
    std::printf("%-10s %6u %8.2f %8.3f %12.3f %14.2f\n",
                eng.profile(p.handle).name.c_str(), p.core,
                p.prediction.effective_size, p.prediction.mpa,
                p.prediction.spi * 1e9,
                1.0 / (p.prediction.spi * m.machine.frequency));
  std::printf("aggregate throughput: %.3f Ginstr/s\n",
              pred.throughput_ips / 1e9);
  if (eng.has_power_model())
    std::printf("predicted processor power: %.2f W (idle %.2f W)\n",
                pred.total_power, eng.power_model().idle_total());
  return 0;
}

int cmd_estimate(const Args& args) {
  const MachineChoice m = machine_by_name(args.require("machine"));
  const core::ModelStore store = load_store_or_die(args.require("store"));
  REPRO_ENSURE(store.power_model.has_value(),
               "store has no power model — run `cmpmodel train`");
  std::vector<std::string> names;
  const core::Assignment slots =
      parse_assignment(args.require("assign"), m.machine.cores, &names);

  std::vector<engine::ProcessHandle> handles;
  const auto eng_ptr = make_engine(m, store, names, &handles);
  const engine::ModelEngine& eng = *eng_ptr;
  engine::CoScheduleQuery query;
  query.assignment = core::Assignment::empty(m.machine.cores);
  for (std::size_t c = 0; c < slots.per_core.size(); ++c)
    for (std::size_t idx : slots.per_core[c])
      query.assignment.per_core[c].push_back(handles[idx]);
  const engine::SystemPrediction pred = eng.predict(query);

  std::printf("%-10s %6s %8s %8s %8s %12s\n", "process", "core", "share",
              "S(ways)", "MPA", "SPI (ns)");
  for (const engine::ProcessOperatingPoint& p : pred.processes)
    std::printf("%-10s %6u %8.2f %8.2f %8.3f %12.3f\n",
                eng.profile(p.handle).name.c_str(), p.core, p.cpu_share,
                p.prediction.effective_size, p.prediction.mpa,
                p.prediction.spi * 1e9);
  for (CoreId c = 0; c < m.machine.cores; ++c)
    std::printf("core %u power: %.2f W\n", c, pred.core_power[c]);
  std::printf("estimated processor power: %.2f W (idle %.2f W)\n",
              pred.total_power, store.power_model->idle_total());
  return 0;
}

int cmd_assign(const Args& args) {
  const MachineChoice m = machine_by_name(args.require("machine"));
  const core::ModelStore store = load_store_or_die(args.require("store"));
  REPRO_ENSURE(store.power_model.has_value(),
               "store has no power model — run `cmpmodel train`");
  const std::vector<std::string> names = split(args.require("jobs"), ',');

  const std::string objective_name = args.get("objective", "power");
  engine::AssignmentObjective objective;
  if (objective_name == "power") {
    objective = engine::AssignmentObjective::kPower;
  } else if (objective_name == "energy") {
    objective = engine::AssignmentObjective::kEnergyPerInstruction;
  } else {
    throw Error("unknown --objective (expected power|energy)");
  }

  // One handle per job position: a repeated name is one registration
  // placed once per occurrence.
  std::vector<engine::ProcessHandle> handles;
  const auto eng = make_engine(m, store, names, &handles);
  const engine::AssignmentSearchResult best =
      engine::optimize_assignment(*eng, handles, objective);
  std::printf(
      "searched %zu mappings; best by %s: %.2f W at %.2f Ginstr/s "
      "(%.3f nJ/instr)\n",
      best.evaluated, objective_name.c_str(), best.prediction.total_power,
      best.prediction.throughput_ips / 1e9,
      1e9 * best.prediction.energy_per_instruction());
  for (std::size_t c = 0; c < best.assignment.per_core.size(); ++c) {
    std::printf("  core %zu:", c);
    if (best.assignment.per_core[c].empty()) std::printf(" (idle)");
    for (std::size_t handle : best.assignment.per_core[c])
      std::printf(" %s",
                  eng->profile(static_cast<engine::ProcessHandle>(handle))
                      .name.c_str());
    std::printf("\n");
  }
  return 0;
}

int cmd_simulate(const Args& args) {
  const MachineChoice m = machine_by_name(args.require("machine"));
  std::vector<std::string> names;
  const core::Assignment a =
      parse_assignment(args.require("assign"), m.machine.cores, &names);
  const double seconds = std::stod(args.get("seconds", "0.3"));

  sim::SystemConfig cfg;
  cfg.machine = m.machine;
  sim::System system(cfg, m.oracle, 1);
  for (CoreId c = 0; c < m.machine.cores; ++c)
    for (std::size_t idx : a.per_core[c]) {
      const workload::WorkloadSpec& spec = workload::find_spec(names[idx]);
      system.add_process(spec.name, c, spec.mix,
                         std::make_unique<workload::StackDistanceGenerator>(
                             spec, m.machine.l2.sets));
    }
  system.warm_up(0.05);
  const sim::RunResult run = system.run(seconds);

  std::printf("measured power: %.2f W (mean over %zu samples)\n",
              run.mean_measured_power(), run.samples.size());
  std::printf("%-10s %6s %8s %8s %12s %10s\n", "process", "core", "S(ways)",
              "MPA", "SPI (ns)", "CPU time");
  for (const sim::ProcessReport& p : run.processes)
    std::printf("%-10s %6u %8.2f %8.3f %12.3f %9.3fs\n", p.name.c_str(),
                p.core, p.mean_occupancy, p.mpa(), p.spi() * 1e9,
                p.cpu_time);
  return 0;
}

/// Escape a string for embedding in a JSON string literal (process
/// names are shell-provided, so quotes/backslashes are possible).
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
      continue;
    }
    out.push_back(c);
  }
  return out;
}

/// Live measured-vs-predicted power for one ground-truth window.
struct WindowPowerError {
  Watts measured = 0.0;
  Watts predicted = 0.0;
  double err_pct = 0.0;  // epsilon-floored relative error, always finite
};

/// Denominator floor for the watch error column: 1 mW, far below any
/// real package power, so relative error stays finite even if a
/// ground-truth window measures ~0 W.
constexpr Watts kWatchPowerFloor = 1e-3;

void print_power_event_json(online::EventCursor seq,
                            const online::PowerRevisionEvent& e, bool first) {
  std::printf(
      "%s{\"seq\":%llu,\"kind\":\"power\",\"applied\":%s,\"revision\":%llu,"
      "\"rank_deficient\":%s,\"reason\":\"%s\",\"r2\":%.6g,"
      "\"accuracy\":%.6g,\"candidate_err_pct\":%.6g,"
      "\"incumbent_err_pct\":%.6g,\"idle_w\":%.6g,"
      "\"coefficients\":[%.9g,%.9g,%.9g,%.9g,%.9g],\"fit_windows\":%zu}",
      first ? "" : ",", static_cast<unsigned long long>(seq),
      e.applied ? "true" : "false",
      static_cast<unsigned long long>(e.revision),
      e.rank_deficient ? "true" : "false", json_escape(e.reason).c_str(),
      e.r2, e.accuracy, e.candidate_err_pct, e.incumbent_err_pct, e.idle,
      e.coefficients[0], e.coefficients[1], e.coefficients[2],
      e.coefficients[3], e.coefficients[4], e.window_samples);
}

void print_profile_event_json(online::EventCursor seq,
                              const online::RevisionEvent& e,
                              const engine::ModelEngine& eng, bool first) {
  double spi = 0.0;
  if (e.resolved)
    for (const auto& pt : e.prediction.processes)
      if (pt.handle == e.handle) spi = pt.prediction.spi;
  std::printf(
      "%s{\"seq\":%llu,\"kind\":\"profile\",\"process\":\"%s\",\"handle\":%u,"
      "\"revision\":%llu,\"fit_rms\":%.6g,\"fit_windows\":%zu,"
      "\"resolved\":%s,\"degraded\":%s,\"solver_iterations\":%d,"
      "\"solver_fallbacks\":%d,\"spi_ns\":%.6g,\"power_w\":%.6g}",
      first ? "" : ",", static_cast<unsigned long long>(seq),
      json_escape(eng.profile(e.handle).name).c_str(), e.handle,
      static_cast<unsigned long long>(e.revision), e.quality.fit_rms,
      e.quality.windows, e.resolved ? "true" : "false",
      e.degraded ? "true" : "false", e.solver_iterations,
      e.solver_fallbacks, spi * 1e9,
      e.resolved ? e.prediction.total_power : 0.0);
}

/// --json mode: one object per sample window with the single `events`
/// array it produced — profile and power revisions tagged by "kind"
/// and interleaved in global cursor (seq) order — plus the
/// measured-vs-predicted power error (when the window has ground
/// truth) and the PipelineHealth counter deltas, so a watch trace is
/// line-diffable in CI.
void print_window_json(std::uint64_t window, const sim::Sample& sample,
                       const engine::ModelEngine& eng,
                       const std::vector<online::PipelineEvent>& events,
                       const std::optional<WindowPowerError>& power_error,
                       const online::PipelineHealth& delta) {
  std::printf("{\"window\":%llu,\"t\":%.6f,",
              static_cast<unsigned long long>(window), sample.time);
  if (!sample.core_frequency.empty()) {
    std::printf("\"core_frequency\":[");
    for (std::size_t c = 0; c < sample.core_frequency.size(); ++c)
      std::printf("%s%.9g", c == 0 ? "" : ",", sample.core_frequency[c]);
    std::printf("],");
  }
  std::printf("\"events\":[");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const online::PipelineEvent& e = events[i];
    if (e.is_profile())
      print_profile_event_json(e.seq, e.profile(), eng, i == 0);
    else
      print_power_event_json(e.seq, e.power(), i == 0);
  }
  std::printf("]");
  if (power_error.has_value())
    std::printf(",\"power\":{\"measured_w\":%.6g,\"predicted_w\":%.6g,"
                "\"err_pct\":%.6g}",
                power_error->measured, power_error->predicted,
                power_error->err_pct);
  std::printf(
      ",\"health_delta\":{\"seen\":%llu,\"forwarded\":%llu,"
      "\"repaired\":%llu,\"quarantined\":%llu,\"dropped\":%llu,"
      "\"rejected\":%llu,\"degraded\":%llu,\"evicted\":%llu}}\n",
      static_cast<unsigned long long>(delta.windows_seen),
      static_cast<unsigned long long>(delta.windows_forwarded),
      static_cast<unsigned long long>(delta.windows_repaired),
      static_cast<unsigned long long>(delta.windows_quarantined),
      static_cast<unsigned long long>(delta.windows_dropped),
      static_cast<unsigned long long>(delta.revisions_rejected),
      static_cast<unsigned long long>(delta.degraded_resolves),
      static_cast<unsigned long long>(delta.history_evicted));
}

/// Human mode: one line per event, profile and power revisions
/// interleaved exactly as the unified log ordered them.
void print_events_human(const std::vector<online::PipelineEvent>& events,
                        const engine::ModelEngine& eng) {
  for (const online::PipelineEvent& event : events) {
    if (event.is_profile()) {
      const online::RevisionEvent& e = event.profile();
      double spi = 0.0;
      if (e.resolved)
        for (const auto& pt : e.prediction.processes)
          if (pt.handle == e.handle) spi = pt.prediction.spi;
      std::printf("%-8.3f %-12s %-4llu %-9.3f %-9.2f %-7d %d%s\n", e.time,
                  eng.profile(e.handle).name.c_str(),
                  static_cast<unsigned long long>(e.revision), spi * 1e9,
                  e.resolved ? e.prediction.total_power : 0.0,
                  e.solver_iterations, e.solver_fallbacks,
                  e.degraded ? " degraded" : "");
    } else {
      const online::PowerRevisionEvent& e = event.power();
      const std::string verdict =
          e.applied ? "applied" : "rejected: " + e.reason;
      std::printf(
          "%-8.3f %-12s %-4llu idle %.1f W  r2 %.3f  err %.2f%% "
          "(incumbent %.2f%%)  %s\n",
          e.time, "[power]", static_cast<unsigned long long>(e.revision),
          e.idle, e.r2, e.candidate_err_pct, e.incumbent_err_pct,
          verdict.c_str());
    }
  }
}

/// --dvfs "t:core:hz;t:core:hz" → a deterministic DvfsSchedule.
sim::DvfsSchedule parse_dvfs(const std::string& spec) {
  sim::DvfsSchedule schedule;
  for (const std::string& step_text : split(spec, ';')) {
    if (step_text.empty()) continue;
    const std::vector<std::string> parts = split(step_text, ':');
    REPRO_ENSURE(parts.size() == 3,
                 "--dvfs step must be t:core:hz, got '" + step_text + "'");
    sim::DvfsStep step;
    step.at = std::stod(parts[0]);
    step.core = static_cast<CoreId>(std::stoul(parts[1]));
    step.hz = std::stod(parts[2]);
    schedule.steps.push_back(step);
  }
  return schedule;
}

int cmd_watch(const Args& args) {
  const MachineChoice m = machine_by_name(args.require("machine"));
  std::vector<std::string> names;
  const core::Assignment slots =
      parse_assignment(args.require("assign"), m.machine.cores, &names);
  REPRO_ENSURE(!names.empty(), "watch needs at least one process");
  const double seconds = std::stod(args.get("seconds", "1.5"));
  const std::uint64_t phase_accesses =
      static_cast<std::uint64_t>(std::stod(args.get("phase-accesses", "6e6")));
  const std::string store_path = args.get("store", "");
  const double fault_rate = std::stod(args.get("fault-rate", "0"));
  const std::string fault_list =
      args.get("faults", "drop,dup,reorder,wrap,scale,spike,zero");
  const auto fault_seed =
      static_cast<std::uint64_t>(std::stoull(args.get("fault-seed", "1")));
  const bool sanitize = args.get("sanitize", "on") != "off";
  const bool json = args.get("json", "off") != "off";
  const bool power_refit = args.get("power-refit", "on") != "off";
  const std::string ingest = args.get("ingest", "inline");
  REPRO_ENSURE(ingest == "inline" || ingest == "ring",
               "--ingest must be 'inline' or 'ring'");
  const std::size_t shard_count =
      static_cast<std::size_t>(std::stoull(args.get("shards", "1")));
  REPRO_ENSURE(shard_count > 0, "--shards must be positive");
  const bool sharded = shard_count > 1;
  const bool coalesce = args.get("coalesce", "off") != "off";
  const bool dump_bad = args.get("dump-bad", "off") != "off";

  // An existing store contributes its power model (prices re-solves);
  // profiles always come from the stream — that is the point.
  core::ModelStore store;
  if (!store_path.empty())
    if (auto existing = core::load_store(store_path)) store = *existing;

  engine::EngineOptions eng_options;
  eng_options.threads = 1;
  auto eng = store.power_model.has_value()
                 ? std::make_unique<engine::ModelEngine>(
                       m.machine, *store.power_model, eng_options)
                 : std::make_unique<engine::ModelEngine>(m.machine,
                                                         eng_options);

  // Build the simulated workload: each name is a '>'-chained spec list
  // played as consecutive phases.
  sim::SystemConfig cfg;
  cfg.machine = m.machine;
  sim::System system(cfg, m.oracle, 1);
  std::vector<ProcessId> pids(names.size());
  std::vector<DieId> dies(names.size(), 0);
  for (CoreId c = 0; c < m.machine.cores; ++c)
    for (std::size_t idx : slots.per_core[c]) {
      std::vector<workload::PhaseSegment> segments;
      for (const std::string& spec_name : split(names[idx], '>'))
        segments.push_back({workload::find_spec(spec_name), phase_accesses});
      const sim::InstructionMix mix = segments.front().spec.mix;
      pids[idx] = system.add_process(
          names[idx], c, mix,
          std::make_unique<workload::PhasedGenerator>(std::move(segments),
                                                      m.machine.l2.sets));
      dies[idx] = m.machine.core_to_die[c];
    }

  const std::string dvfs_spec = args.get("dvfs", "");
  if (!dvfs_spec.empty()) system.set_dvfs_schedule(parse_dvfs(dvfs_spec));

  online::ShardedPipelineOptions pipe_options;
  pipe_options.builder.phase.min_phase_windows = 5;
  pipe_options.builder.refit_interval = 8;
  pipe_options.builder.min_fit_windows = 4;
  pipe_options.harden = sanitize;
  // Ring ingestion moves window processing onto the pipeline's worker
  // threads; the sink returns as soon as the window is enqueued. The
  // event stream is identical either way, only its timing shifts.
  pipe_options.inline_ingest = ingest != "ring";
  // Sharded mode: one producer lane per die (the watch splits each
  // machine window into per-die slices below); the shard count is
  // clamped to the lane count by the pipeline. --shards 1 keeps the
  // whole-window single-lane mode, bit-identical to the pre-sharding
  // watch.
  pipe_options.shards = shard_count;
  pipe_options.producers = sharded ? m.machine.dies : 1;
  pipe_options.coalesce_resolves = coalesce;
  // The refit needs an incumbent to revise, so it engages only when the
  // store supplied a power model. Intervals are tightened from the
  // production defaults so short watches see the loop at work.
  if (power_refit && store.power_model.has_value()) {
    pipe_options.power.enabled = true;
    pipe_options.power.refit_interval = 16;
    pipe_options.power.min_fit_windows = 16;
  }
  // Durability (ISSUE 8): --journal arms the checksummed event
  // journal, --checkpoint the atomic engine checkpoints. With
  // --recover on (the default) the watch resumes from whatever a
  // previous — possibly SIGKILLed — run left behind.
  const std::string journal_path = args.get("journal", "");
  const std::string checkpoint_path = args.get("checkpoint", "");
  pipe_options.durability.journal_path = journal_path;
  pipe_options.durability.checkpoint_path = checkpoint_path;
  pipe_options.durability.checkpoint_every = static_cast<std::size_t>(
      std::stoull(args.get("checkpoint-every", "64")));
  pipe_options.durability.recover = args.get("recover", "on") != "off";
  const std::string fsync_mode = args.get("fsync", "every_n");
  if (fsync_mode == "off")
    pipe_options.durability.journal.fsync = online::JournalFsync::kOff;
  else if (fsync_mode == "on_revision")
    pipe_options.durability.journal.fsync = online::JournalFsync::kOnRevision;
  else
    REPRO_ENSURE(fsync_mode == "every_n",
                 "--fsync must be every_n, on_revision, or off");
  pipe_options.durability.journal.fsync_every =
      static_cast<std::size_t>(std::stoull(args.get("fsync-every", "32")));
  online::ShardedPipeline pipe(*eng, pipe_options);
  const online::RecoveryReport& recovered = pipe.recovery();
  if (!json && pipe_options.durability.recover &&
      (!journal_path.empty() || !checkpoint_path.empty()) &&
      (recovered.checkpoint_found || recovered.replayed > 0 ||
       recovered.journal.found)) {
    std::printf("recovered: %s, %zu event(s) replayed from the journal"
                "%s%s; event log resumes at seq %llu\n\n",
                recovered.checkpoint_found
                    ? ("checkpoint at epoch " +
                       std::to_string(recovered.checkpoint_epoch))
                          .c_str()
                    : "no checkpoint",
                recovered.replayed,
                recovered.journal.truncated_frames > 0 ? ", torn tail cut"
                                                       : "",
                recovered.checkpoint_error.empty() ? ""
                                                   : " (stale checkpoint "
                                                     "refused)",
                static_cast<unsigned long long>(recovered.next_seq));
  }
  for (std::size_t idx = 0; idx < names.size(); ++idx)
    pipe.monitor(pids[idx], sharded ? dies[idx] : 0, names[idx]);

  if (!json) {
    std::printf("watching %zu processes for %.2fs of virtual time...\n\n",
                names.size(), seconds);
    std::printf("%-8s %-12s %-4s %-9s %-9s %-7s %s\n", "t [s]", "process",
                "rev", "SPI (ns)", "P [W]", "iters", "fallbacks");
  }

  bool query_set = false;
  // In sharded mode each machine window fans out as per-die slices —
  // one per producer lane; the coordinator's watermark merge reunites
  // them. (The fault injector, when active, corrupts the machine
  // window before the split, so a duplicated or reordered window
  // perturbs every lane coherently, as a broken daemon would.)
  sim::System::SampleCallback sink;
  if (sharded) {
    sink = [&system, &pipe](const sim::Sample& s) {
      for (const sim::Sample& slice : system.split_sample(s))
        pipe.push(slice);
    };
  } else {
    sink = pipe.sink();
  }
  std::optional<sim::FaultInjector> chaos;
  if (fault_rate > 0.0) {
    sim::FaultInjectorOptions fi;
    fi.seed = fault_seed;
    for (const std::string& fault_name : split(fault_list, ',')) {
      const auto cls = sim::parse_fault_class(fault_name);
      REPRO_ENSURE(cls.has_value(), "unknown fault class: " + fault_name);
      fi.rate_of(*cls) = fault_rate;
    }
    chaos.emplace(sink, fi);
    if (!json)
      std::printf("injecting faults (%s) at rate %.3f, seed %llu%s\n\n",
                  fault_list.c_str(), fault_rate,
                  static_cast<unsigned long long>(fault_seed),
                  sanitize ? "" : " — SANITIZER OFF");
  }
  // Poll the unified event log through the eviction-proof seq cursor:
  // absolute ring indices renumber once the event ring starts
  // evicting, seqs never do. One cursor covers profile and power
  // events alike. Health counters are diffed window-over-window for
  // --json.
  online::EventCursor next_seq = 0;
  std::uint64_t window_index = 0;
  double err_pct_sum = 0.0;
  std::uint64_t err_windows = 0;
  // The live measured-vs-predicted column: the current engine model
  // (including any applied refits) against this window's clamp
  // measurement. Windows without ground truth report nothing.
  auto power_error_of =
      [&](const sim::Sample& s) -> std::optional<WindowPowerError> {
    if (!eng->has_power_model()) return std::nullopt;
    if (!std::isfinite(s.measured_power) || s.measured_power <= 0.0)
      return std::nullopt;
    WindowPowerError w;
    w.measured = s.measured_power;
    w.predicted = eng->power_model().predict(s.core_rates);
    w.err_pct = 100.0 * math::relative_error_floored(w.predicted, w.measured,
                                                     kWatchPowerFloor);
    err_pct_sum += w.err_pct;
    ++err_windows;
    return w;
  };
  online::PipelineHealth last_health;
  auto health_delta = [&last_health](const online::PipelineHealth& health) {
    online::PipelineHealth delta;
    delta.windows_seen = health.windows_seen - last_health.windows_seen;
    delta.windows_forwarded =
        health.windows_forwarded - last_health.windows_forwarded;
    delta.windows_repaired =
        health.windows_repaired - last_health.windows_repaired;
    delta.windows_quarantined =
        health.windows_quarantined - last_health.windows_quarantined;
    delta.windows_dropped = health.windows_dropped - last_health.windows_dropped;
    delta.revisions_rejected =
        health.revisions_rejected - last_health.revisions_rejected;
    delta.degraded_resolves =
        health.degraded_resolves - last_health.degraded_resolves;
    delta.history_evicted =
        health.history_evicted - last_health.history_evicted;
    last_health = health;
    return delta;
  };
  system.run(seconds, [&](const sim::Sample& s) {
    if (chaos.has_value())
      chaos->push(s);
    else
      sink(s);
    if (!query_set) {
      bool all = true;
      for (ProcessId pid : pids)
        if (!pipe.handle_of(pid)) all = false;
      if (all) {
        engine::CoScheduleQuery q;
        q.assignment = core::Assignment::empty(m.machine.cores);
        for (CoreId c = 0; c < m.machine.cores; ++c)
          for (std::size_t idx : slots.per_core[c])
            q.assignment.per_core[c].push_back(*pipe.handle_of(pids[idx]));
        pipe.set_query(q);
        query_set = true;
      }
    }
    const std::vector<online::PipelineEvent> fresh =
        pipe.events_since(next_seq);
    if (!fresh.empty()) next_seq = fresh.back().seq + 1;
    const std::optional<WindowPowerError> perr = power_error_of(s);
    if (json) {
      print_window_json(window_index, s, *eng, fresh, perr,
                        health_delta(pipe.snapshot().stats.health));
    } else {
      print_events_human(fresh, *eng);
    }
    ++window_index;
  });
  if (chaos.has_value()) chaos->flush();
  // A failed ring-mode shard surfaces here. Report the run first, then
  // leave through main() like an inline push() error.
  std::exception_ptr failure;
  try {
    pipe.finish();
  } catch (const std::exception&) {
    failure = std::current_exception();
  }

  // finish() force-fits the tail windows (and drains any ring-queued
  // ones), which can emit a last burst of revisions; drain the event
  // log so the trace covers the whole stream.
  const std::vector<online::PipelineEvent> tail = pipe.events_since(next_seq);
  if (!tail.empty()) {
    next_seq = tail.back().seq + 1;
    if (json) {
      sim::Sample flush_sample;
      flush_sample.time = seconds;
      print_window_json(window_index, flush_sample, *eng, tail, std::nullopt,
                        health_delta(pipe.snapshot().stats.health));
    } else {
      print_events_human(tail, *eng);
    }
  }

  const online::PipelineStats stats = pipe.snapshot().stats;
  if (json) {
    const online::PipelineHealth& h = stats.health;
    std::printf(
        "{\"summary\":{\"windows\":%llu,\"revisions\":%llu,"
        "\"phase_changes\":%llu,\"frequency_steps\":%llu,"
        "\"resolves\":%llu,"
        "\"coalesced_resolves\":%llu,"
        "\"solver_iterations\":%llu,\"solver_fallbacks\":%llu,"
        "\"power\":{\"revisions\":%llu,\"rejected\":%llu,"
        "\"mean_err_pct\":%.6g,\"err_windows\":%llu},"
        "\"health\":{\"seen\":%llu,"
        "\"forwarded\":%llu,\"repaired\":%llu,\"quarantined\":%llu,"
        "\"dropped\":%llu,"
        "\"rejected\":%llu,\"degraded\":%llu,\"evicted\":%llu,"
        "\"shards_failed\":%llu},"
        "\"durability\":{\"journaled\":%llu,\"checkpoints\":%llu,"
        "\"replayed\":%llu,\"truncated_frames\":%llu,"
        "\"write_failures\":%llu}}}\n",
        static_cast<unsigned long long>(stats.windows),
        static_cast<unsigned long long>(stats.revisions),
        static_cast<unsigned long long>(stats.phase_changes),
        static_cast<unsigned long long>(stats.frequency_steps),
        static_cast<unsigned long long>(stats.resolves),
        static_cast<unsigned long long>(stats.coalesced_resolves),
        static_cast<unsigned long long>(stats.solver_iterations),
        static_cast<unsigned long long>(stats.solver_fallbacks),
        static_cast<unsigned long long>(stats.power_revisions),
        static_cast<unsigned long long>(stats.power_rejected),
        err_windows > 0 ? err_pct_sum / static_cast<double>(err_windows) : 0.0,
        static_cast<unsigned long long>(err_windows),
        static_cast<unsigned long long>(h.windows_seen),
        static_cast<unsigned long long>(h.windows_forwarded),
        static_cast<unsigned long long>(h.windows_repaired),
        static_cast<unsigned long long>(h.windows_quarantined),
        static_cast<unsigned long long>(h.windows_dropped),
        static_cast<unsigned long long>(h.revisions_rejected),
        static_cast<unsigned long long>(h.degraded_resolves),
        static_cast<unsigned long long>(h.history_evicted),
        static_cast<unsigned long long>(h.shards_failed),
        static_cast<unsigned long long>(stats.journaled_events),
        static_cast<unsigned long long>(stats.checkpoints),
        static_cast<unsigned long long>(recovered.replayed),
        static_cast<unsigned long long>(h.recovery_truncated_frames),
        static_cast<unsigned long long>(h.journal_write_failures));
  } else {
    std::printf("\n%llu windows -> %llu revisions, %llu phase changes, "
                "%llu re-solves (mean %.1f solver iterations, %llu bisection "
                "fallback(s))\n",
                static_cast<unsigned long long>(stats.windows),
                static_cast<unsigned long long>(stats.revisions),
                static_cast<unsigned long long>(stats.phase_changes),
                static_cast<unsigned long long>(stats.resolves),
                stats.resolves > 0
                    ? static_cast<double>(stats.solver_iterations) /
                          static_cast<double>(stats.resolves)
                    : 0.0,
                static_cast<unsigned long long>(stats.solver_fallbacks));
    if (stats.coalesced_resolves > 0)
      std::printf("coalesced %llu re-solve(s) across same-window phase "
                  "coincidences\n",
                  static_cast<unsigned long long>(stats.coalesced_resolves));
    if (stats.frequency_steps > 0)
      std::printf("dvfs: %llu frequency step(s) absorbed by rescaling "
                  "(no phase change booked)\n",
                  static_cast<unsigned long long>(stats.frequency_steps));
    const online::PipelineHealth& health = stats.health;
    std::printf("health: %llu/%llu windows forwarded (%llu repaired, "
                "%llu quarantined, %llu dropped), %llu revisions rejected, "
                "%llu degraded re-solves, %llu history evictions, "
                "%llu shards failed\n",
                static_cast<unsigned long long>(health.windows_forwarded),
                static_cast<unsigned long long>(health.windows_seen),
                static_cast<unsigned long long>(health.windows_repaired),
                static_cast<unsigned long long>(health.windows_quarantined),
                static_cast<unsigned long long>(health.windows_dropped),
                static_cast<unsigned long long>(health.revisions_rejected),
                static_cast<unsigned long long>(health.degraded_resolves),
                static_cast<unsigned long long>(health.history_evicted),
                static_cast<unsigned long long>(health.shards_failed));
    if (!journal_path.empty() || !checkpoint_path.empty())
      std::printf("durability: %llu events journaled, %llu checkpoints, "
                  "%zu replayed at start, %llu torn frames cut, "
                  "%llu write failures\n",
                  static_cast<unsigned long long>(stats.journaled_events),
                  static_cast<unsigned long long>(stats.checkpoints),
                  recovered.replayed,
                  static_cast<unsigned long long>(
                      health.recovery_truncated_frames),
                  static_cast<unsigned long long>(
                      health.journal_write_failures));
    if (stats.power_revisions > 0 || stats.power_rejected > 0 ||
        err_windows > 0) {
      std::printf("power: %llu refits applied, %llu rejected, "
                  "mean |err| %.2f%% over %llu measured windows\n",
                  static_cast<unsigned long long>(stats.power_revisions),
                  static_cast<unsigned long long>(stats.power_rejected),
                  err_windows > 0
                      ? err_pct_sum / static_cast<double>(err_windows)
                      : 0.0,
                  static_cast<unsigned long long>(err_windows));
    }
    if (chaos.has_value()) {
      const sim::FaultInjector::Stats& f = chaos->stats();
      std::printf("faults: %llu dropped, %llu duplicated, %llu reordered, "
                  "%llu wrapped, %llu scaled, %llu spiked, %llu zeroed\n",
                  static_cast<unsigned long long>(f.dropped),
                  static_cast<unsigned long long>(f.duplicated),
                  static_cast<unsigned long long>(f.reordered),
                  static_cast<unsigned long long>(f.wrapped),
                  static_cast<unsigned long long>(f.scaled),
                  static_cast<unsigned long long>(f.spiked),
                  static_cast<unsigned long long>(f.zeroed));
    }
  }

  if (dump_bad) {
    // Quarantine forensics: the raw rejected windows each shard
    // retained, merged across shards in (seq, die) order.
    const std::vector<online::QuarantineRecord> bad = pipe.quarantined();
    if (json) {
      std::printf("{\"quarantined\":[");
      for (std::size_t i = 0; i < bad.size(); ++i) {
        const online::QuarantineRecord& r = bad[i];
        double instructions = 0.0;
        for (const auto& delta : r.window.process_delta)
          instructions += delta.instructions;
        std::printf("%s{\"t\":%.6g,\"die\":%u,\"seq\":%llu,"
                    "\"verdict\":\"%s\",\"measured_power\":%.6g,"
                    "\"instructions\":%.6g}",
                    i > 0 ? "," : "", r.time, r.die,
                    static_cast<unsigned long long>(r.seq),
                    online::to_string(r.verdict), r.window.measured_power,
                    instructions);
      }
      std::printf("]}\n");
    } else {
      std::printf("\nquarantine forensics: %zu window(s) retained\n",
                  bad.size());
      for (const online::QuarantineRecord& r : bad) {
        double instructions = 0.0;
        for (const auto& delta : r.window.process_delta)
          instructions += delta.instructions;
        std::printf("  t=%-8.3f die %-2u seq %-6llu %-12s "
                    "measured %8.2f W  instr %.3g\n",
                    r.time, r.die, static_cast<unsigned long long>(r.seq),
                    online::to_string(r.verdict), r.window.measured_power,
                    instructions);
      }
    }
  }

  if (failure) std::rethrow_exception(failure);

  if (!store_path.empty()) {
    for (std::size_t idx = 0; idx < names.size(); ++idx)
      if (auto h = pipe.handle_of(pids[idx])) {
        const core::ProcessProfile fresh = eng->profile(*h);
        bool replaced = false;
        for (core::ProcessProfile& p : store.profiles)
          if (p.name == fresh.name) {
            p = fresh;
            replaced = true;
          }
        if (!replaced) store.profiles.push_back(fresh);
      }
    core::save_store(store_path, store);
    // stdout stays pure JSON in --json mode; notes go to stderr.
    std::fprintf(json ? stderr : stdout, "saved streamed revisions to %s\n",
                 store_path.c_str());
  }
  return 0;
}

/// checkpoint — compact durable state offline: recover (newest valid
/// checkpoint + journal replay), publish a fresh atomic checkpoint
/// holding the merged state, then truncate the journal to its header.
/// A crash at any point leaves a recoverable pair: the rename is
/// atomic and the journal is only cut after the checkpoint is durable.
int cmd_checkpoint(const Args& args) {
  const MachineChoice m = machine_by_name(args.require("machine"));
  const std::string checkpoint_path = args.require("checkpoint");
  const std::string journal_path = args.get("journal", "");
  const bool json = args.get("json", "off") != "off";

  // restore() only accepts a power model into an engine built with
  // one, so peek at the durable state to construct the right shape.
  std::optional<core::PowerModel> incumbent;
  try {
    if (auto cp = engine::load_checkpoint(checkpoint_path))
      if (cp->store.power_model.has_value())
        incumbent = cp->store.power_model;
  } catch (const Error&) {
    // Corrupt checkpoint: recover_engine will refuse it with the same
    // message and fall back to replaying the journal from scratch.
  }
  if (!incumbent.has_value() && !journal_path.empty()) {
    const online::JournalRecovery scan = online::scan_journal(journal_path);
    for (const online::JournalRecord& r : scan.records)
      if (r.power.has_value()) {
        incumbent = r.power;
        break;
      }
  }

  engine::EngineOptions eng_options;
  eng_options.threads = 1;
  auto eng = incumbent.has_value()
                 ? std::make_unique<engine::ModelEngine>(m.machine, *incumbent,
                                                         eng_options)
                 : std::make_unique<engine::ModelEngine>(m.machine,
                                                         eng_options);
  const online::RecoveryReport report =
      online::recover_engine(*eng, checkpoint_path, journal_path);

  engine::save_checkpoint(checkpoint_path, *eng->snapshot(),
                          report.next_seq);
  bool journal_truncated = false;
  if (!journal_path.empty() && report.journal.found) {
    // The fresh checkpoint now holds every replayed frame; restart the
    // journal empty so the next watch appends after a short file.
    online::JournalWriter writer;
    REPRO_ENSURE(writer.open(journal_path, online::JournalOptions{}, 0),
                 "journal truncate failed: " + writer.last_error());
    journal_truncated = true;
  }

  const std::size_t profiles = eng->snapshot()->process_count();
  if (json) {
    std::printf(
        "{\"checkpoint\":{\"path\":\"%s\",\"epoch\":%llu,"
        "\"profiles\":%zu,\"power_model\":%s,\"next_seq\":%llu,"
        "\"replayed\":%zu,\"skipped\":%zu,\"truncated_frames\":%zu,"
        "\"journal_truncated\":%s}}\n",
        checkpoint_path.c_str(),
        static_cast<unsigned long long>(eng->snapshot()->epoch()), profiles,
        eng->has_power_model() ? "true" : "false",
        static_cast<unsigned long long>(report.next_seq), report.replayed,
        report.skipped, report.journal.truncated_frames,
        journal_truncated ? "true" : "false");
  } else {
    std::printf("recovered %zu profile(s)%s: %zu journal event(s) replayed, "
                "%zu already in the checkpoint, %zu torn frame(s) cut\n",
                profiles, eng->has_power_model() ? " + power model" : "",
                report.replayed, report.skipped,
                report.journal.truncated_frames);
    std::printf("checkpoint written to %s (event log resumes at seq %llu)%s\n",
                checkpoint_path.c_str(),
                static_cast<unsigned long long>(report.next_seq),
                journal_truncated ? "; journal compacted" : "");
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: cmpmodel <profile|train|predict|estimate|assign|"
               "simulate|watch|checkpoint> [--key value]...\n"
               "see the header comment of tools/cmpmodel.cpp for examples\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage();
    const Args args = parse(argc, argv);
    if (args.command == "profile") return cmd_profile(args);
    if (args.command == "train") return cmd_train(args);
    if (args.command == "predict") return cmd_predict(args);
    if (args.command == "estimate") return cmd_estimate(args);
    if (args.command == "assign") return cmd_assign(args);
    if (args.command == "simulate") return cmd_simulate(args);
    if (args.command == "watch") return cmd_watch(args);
    if (args.command == "checkpoint") return cmd_checkpoint(args);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

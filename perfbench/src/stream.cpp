// stream: the on-line path. Eight processes (two per core) are
// monitored by a ShardedPipeline in ring mode — two producer lanes (one
// per die), two shards, kBlock backpressure — over a Newton engine with
// threads = 1, a query set (every applied revision re-solves warm),
// power refit on, and the default kEveryN(32) journal.
//
// One producer thread pushes the same windows in two kinds of pass:
//   paced    open loop at a fixed rate well under capacity; each
//            profile revision's publish latency runs from its
//            triggering window's due time to the moment the producer
//            sees the RevisionEvent via events_since (it polls while
//            waiting for the next due time);
//   unpaced  as fast as push() accepts, then finish(): the client call
//            whose wall (first push → finish() return) gives the query
//            latency and windows_per_s; repeated on fresh pipelines.
// After every pass a fresh engine is recovered from that pass's
// journal and must serialize identically to the live engine.
//
// The traced run adds single-threaded replays of the same windows
// through the public stages (sanitize → stream → build/fit → try_apply
// → warm re-solve → journal append/sync → power refit), each paired
// with an inline single-shard ShardedPipeline pass on the same windows.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "repro/core/serialize.hpp"
#include "repro/online/journal.hpp"
#include "repro/online/power_refitter.hpp"
#include "repro/online/profile_builder.hpp"
#include "repro/online/sample_stream.hpp"
#include "repro/online/sanitizer.hpp"
#include "repro/online/sharded_pipeline.hpp"

namespace perfbench {

using namespace repro;

namespace {

constexpr double kWindow = 0.03;
/// Open-loop rate of the paced pass, whole machine windows (two die
/// slices each) per second — about a twentieth of the unpaced capacity
/// on a 4-core host.
constexpr double kPacedRate = 1250.0;
/// Whole windows per pass. Fixed, so every pass does identical work
/// whatever --seconds is: a paced pass takes 1.2 s and yields about 750
/// publish samples; the unpaced pass is repeated on fresh pipelines
/// until the run's time is used.
constexpr std::size_t kWindows = 1500;
/// Share of an untraced run spent in paced passes, after one untimed
/// warm-up pass. The host's wake-up latency wanders over seconds, so
/// the publish latency medians need many passes spread over the run.
constexpr double kPacedShare = 0.4;
/// Publish samples per latency segment: each segment's tail is a p95.
constexpr std::size_t kPublishSegment = 300;
/// Unpaced passes per latency segment: each segment's tail is a p90.
constexpr std::size_t kPassSegment = 100;

engine::EngineOptions engine_options() {
  engine::EngineOptions eo;
  eo.threads = 1;
  eo.method = core::SolveOptions::Method::kNewton;
  return eo;
}

online::ShardedPipelineOptions pipeline_options(const std::string& journal,
                                                bool ring) {
  online::ShardedPipelineOptions o;
  o.producers = 2;
  o.shards = ring ? 2 : 1;
  o.inline_ingest = !ring;
  o.backpressure = online::Backpressure::kBlock;
  o.power.enabled = true;
  o.durability.journal_path = journal;
  o.durability.recover = false;  // fresh pass, fresh journal
  return o;
}

std::unique_ptr<engine::ModelEngine> fresh_engine(const Inputs& in) {
  auto eng = std::make_unique<engine::ModelEngine>(
      in.machine, fixed_power_model(in.machine.cores), engine_options());
  for (const core::ProcessProfile& p : in.profiles) eng->register_process(p);
  return eng;
}

DieId die_of(const Inputs& in, std::size_t pid) {
  return in.machine.core_to_die[pid / 2];
}

/// One pass's engine and pipeline (the pipeline is declared second, so
/// it is destroyed before the engine it references).
struct Live {
  std::unique_ptr<engine::ModelEngine> engine;
  std::unique_ptr<online::ShardedPipeline> pipe;
  double setup_s = 0.0;
};

/// Engine construction + registration + the first, artifact-warming
/// predict, then pipeline construction (journal open) and monitoring.
Live set_up(const Inputs& in, const std::string& journal, bool ring) {
  Live l;
  const auto t0 = Clock::now();
  l.engine = fresh_engine(in);
  (void)l.engine->predict(stream_query(in));
  l.pipe = std::make_unique<online::ShardedPipeline>(
      *l.engine, pipeline_options(journal, ring));
  for (std::size_t pid = 0; pid < kProcesses; ++pid)
    l.pipe->monitor(static_cast<ProcessId>(pid), die_of(in, pid),
                    static_cast<engine::ProcessHandle>(pid));
  l.pipe->set_query(stream_query(in));
  l.setup_s = seconds_since(t0);
  return l;
}

std::string store_text(const engine::ModelEngine& eng) {
  const std::shared_ptr<const engine::EngineSnapshot> snap = eng.snapshot();
  core::ModelStore store;
  for (engine::ProcessHandle h : snap->live_handles())
    store.profiles.push_back(snap->profile(h));
  if (snap->has_power_model()) store.power_model = snap->power_model();
  return core::write_store_text(store);
}

struct PassStats {
  std::uint64_t pushed = 0;  // die slices handed to push()
  double wall = 0.0;         // first push → finish() return
  online::PipelineStats stats;
  std::string live_store;    // engine serialization after finish()
  double push_wall = 0.0;    // Σ push() time (traced unpaced pass)
  std::uint64_t max_backlog = 0;
  double hit_ratio = 0.0;    // engine artifact cache over the pass
  std::uint64_t cache_lookups = 0;  // its base: hits + misses
};

/// After finish(): the pass's counters, the engine's serialization and
/// its artifact cache hit ratio.
void collect(Live& l, PassStats& ps) {
  ps.stats = l.pipe->snapshot().stats;
  ps.live_store = store_text(*l.engine);
  const engine::ModelEngine::CacheStats c = l.engine->cache_stats();
  ps.cache_lookups = c.hits + c.misses;
  ps.hit_ratio = ps.cache_lookups > 0 ? static_cast<double>(c.hits) /
                                            static_cast<double>(ps.cache_lookups)
                                      : 0.0;
}

/// Pipeline health after a pass; returns the failures it contributes.
std::uint64_t check_pass(Result& r, const PassStats& ps) {
  const online::PipelineHealth& h = ps.stats.health;
  r.check("windows_all_ingested")
      .expect(ps.stats.windows == ps.pushed, "pipeline ingested fewer windows "
                                             "than were pushed");
  r.check("seen_equals_forwarded_plus_quarantined")
      .expect(h.windows_seen == h.windows_forwarded + h.windows_quarantined,
              "windows seen != forwarded + quarantined");
  r.check("no_drops_under_kblock")
      .expect(h.windows_dropped == 0, "windows dropped under kBlock");
  r.check("no_degraded_resolves")
      .expect(h.degraded_resolves == 0, "a re-solve was served degraded");
  r.check("journal_writes_ok")
      .expect(h.journal_write_failures == 0, "journal write failures");
  r.check("revisions_flowed")
      .expect(ps.stats.revisions > 0 && ps.stats.resolves > 0,
              "no profile revision was applied and re-solved");
  const std::uint64_t missing =
      ps.pushed > ps.stats.windows ? ps.pushed - ps.stats.windows : 0;
  return missing + h.windows_dropped + h.degraded_resolves +
         h.journal_write_failures;
}

/// Recover a fresh engine from a pass's journal; it must serialize
/// identically to the live engine at finish().
void check_recovery(Result& r, const Inputs& in, const std::string& journal,
                    const PassStats& ps, Series& recover_s,
                    Series& events_per_s) {
  const std::unique_ptr<engine::ModelEngine> eng = fresh_engine(in);
  const auto t0 = Clock::now();
  const online::RecoveryReport rep = online::recover_engine(*eng, "", journal);
  const double dt = seconds_since(t0);
  recover_s.add(dt);
  if (dt > 0.0) events_per_s.add(static_cast<double>(rep.replayed) / dt);
  Check& c = r.check("recovered_engine_matches_live");
  c.expect(rep.replay_error.empty(), "replay error: " + rep.replay_error);
  c.expect(rep.replayed == ps.stats.journaled_events,
           "recovery replayed " + std::to_string(rep.replayed) + " of " +
               std::to_string(ps.stats.journaled_events) + " journaled events");
  c.expect(store_text(*eng) == ps.live_store,
           "recovered profiles do not serialize like the live engine's");
}

PassStats paced_pass(Live& l, const Inputs& in, const StreamInputs& si,
                     Result& r, Series& publish, Series& late) {
  online::ShardedPipeline& pipe = *l.pipe;
  const engine::CoScheduleQuery query = stream_query(in);
  Check& pred_check = r.check("prediction_valid");
  std::vector<Clock::time_point> due_of(si.generated);
  std::vector<bool> have(si.generated, false);
  online::EventCursor cursor = 0;
  const auto poll = [&] {
    const std::vector<online::PipelineEvent> events = pipe.events_since(cursor);
    const auto now = Clock::now();
    for (const online::PipelineEvent& e : events) {
      cursor = e.seq + 1;
      if (!e.is_profile()) continue;
      const online::RevisionEvent& rev = e.profile();
      const auto seq = static_cast<std::uint64_t>(
          std::llround(rev.time / kWindow) - 1);
      if (seq < si.generated && have[seq])
        publish.add(seconds_between(due_of[seq], now));
      if (rev.resolved) {
        const std::string why =
            check_prediction(*l.engine, query, rev.prediction);
        pred_check.expect(why.empty(), why);
      }
    }
  };

  PassStats ps;
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kPacedRate));
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < si.windows.size(); ++i) {
    const auto due = start + period * static_cast<long>(i);
    while (Clock::now() < due) {
      poll();
      std::this_thread::yield();  // let a woken shard worker have the core
    }
    late.add(seconds_since(due));
    const std::uint64_t seq = si.windows[i].front().seq;
    if (seq < si.generated && !have[seq]) {
      have[seq] = true;
      due_of[seq] = due;
    }
    for (const sim::Sample& slice : si.windows[i]) {
      pipe.push(slice);
      ++ps.pushed;
    }
  }
  // Let the workers drain, keep observing, then flush.
  while (pipe.snapshot().stats.windows < ps.pushed) {
    poll();
    std::this_thread::yield();
  }
  poll();
  pipe.finish();
  ps.wall = seconds_since(start);
  collect(l, ps);
  return ps;
}

PassStats unpaced_pass(Live& l, const StreamInputs& si, bool traced) {
  online::ShardedPipeline& pipe = *l.pipe;
  PassStats ps;
  const auto t0 = Clock::now();
  for (const std::vector<sim::Sample>& window : si.windows)
    for (const sim::Sample& slice : window) {
      if (traced) {
        const auto tp = Clock::now();
        pipe.push(slice);
        ps.push_wall += seconds_since(tp);
        if (++ps.pushed % 64 == 0) {
          const std::uint64_t ingested = pipe.snapshot().stats.windows;
          ps.max_backlog = std::max(ps.max_backlog, ps.pushed - ingested);
        }
      } else {
        pipe.push(slice);
        ++ps.pushed;
      }
    }
  pipe.finish();
  ps.wall = seconds_since(t0);
  collect(l, ps);
  return ps;
}

// --- Traced single-threaded replay -------------------------------------

struct Replay {
  std::uint64_t revisions = 0;
  std::uint64_t sanitized = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t refit_attempts = 0;
  std::uint64_t refit_accepted = 0;
  std::uint64_t appended = 0;
  std::uint64_t degraded = 0;
  std::uint64_t parity_mismatches = 0;
  double bytes_per_event = 0.0;
  double wall = 0.0;
  Series predict;  // untraced engine.predict on every resolve
};

/// `eng` is a fresh engine (baselines registered) that `qt` traces.
Replay replay(const Inputs& in, const StreamInputs& si,
              const std::string& journal, engine::ModelEngine& eng,
              QueryTracer& qt, Tracer& tracer) {
  Replay out;
  const engine::CoScheduleQuery query = stream_query(in);
  const std::uint32_t ways = in.machine.l2.ways;
  const double max_fit_rms = pipeline_options(journal, false).max_fit_rms;

  online::SampleSanitizerOptions so;
  so.ways = ways;
  online::ProfileBuilderOptions bo;
  bo.ways = ways;
  struct Lane {
    online::SampleSanitizer sanitizer;
    online::SampleStream stream;
  };
  std::vector<Lane> lanes;
  for (DieId d = 0; d < in.machine.dies; ++d)
    lanes.push_back({online::SampleSanitizer(so), online::SampleStream{}});
  std::vector<std::unique_ptr<online::ProfileBuilder>> builders;
  struct Candidate {
    std::size_t pid;
    Seconds time;
    online::ProfileRevision revision;
  };
  std::vector<Candidate> pending;
  std::int64_t parent = -1;
  std::uint64_t op = 0;
  for (std::size_t pid = 0; pid < kProcesses; ++pid) {
    builders.push_back(std::make_unique<online::ProfileBuilder>(
        in.profiles[pid].name, bo));
    builders.back()->set_baseline(in.profiles[pid]);
    online::ProfileBuilder* b = builders.back().get();
    lanes[die_of(in, pid)].stream.attach(
        static_cast<ProcessId>(pid),
        [&, b, pid](const online::WindowObservation& obs) {
          const auto t0 = Clock::now();
          std::optional<online::ProfileRevision> rev = b->push(obs);
          tracer.record(rev ? "online.fit" : "online.builder", t0, Clock::now(),
                        parent, op);
          if (rev) pending.push_back({pid, obs.time, std::move(*rev)});
        });
  }
  online::PowerRefitOptions po;
  po.enabled = true;
  online::PowerRefitter refitter(in.machine.cores, po);
  online::JournalOptions jo;
  jo.fsync = online::JournalFsync::kOff;  // synced every 32 below, traced
  online::JournalWriter writer;
  writer.open(journal, jo, 0);
  std::uint64_t next_seq = 0;
  std::optional<engine::SystemPrediction> latest;
  double untimed = 0.0;

  const auto append = [&](online::JournalRecord rec) {
    Scope s(tracer, "online.journal.append", parent, op);
    writer.append(rec);
    if (++out.appended % 32 == 0) {
      Scope y(tracer, "online.journal.sync", s.id(), op);
      writer.sync();
    }
  };
  const auto apply = [&](Candidate& c) {
    // The pipeline's quality gate, then the engine's door.
    if (!(c.revision.quality.fit_rms <= max_fit_rms)) return;
    const auto handle = static_cast<engine::ProcessHandle>(c.pid);
    engine::ApplyResult ar;
    {
      Scope s(tracer, "engine.try_apply", parent, op);
      ar = eng.try_apply(
          engine::Revision::process(handle, std::move(c.revision.profile)));
    }
    if (!ar.applied) return;
    ++out.revisions;
    engine::CoScheduleQuery q = query;
    if (latest.has_value()) {
      std::vector<std::vector<double>> per_core(in.machine.cores);
      for (const engine::ProcessOperatingPoint& pt : latest->processes)
        per_core[pt.core].push_back(pt.prediction.effective_size);
      for (const std::vector<double>& seeds : per_core)
        q.warm_start.insert(q.warm_start.end(), seeds.begin(), seeds.end());
    }
    const std::shared_ptr<const engine::EngineSnapshot> snap = eng.snapshot();
    try {
      Scope s(tracer, "online.resolve", parent, op);
      latest = qt.price(*snap, q, op, s.id());
    } catch (const Error&) {
      ++out.degraded;
    }
    if (latest.has_value()) {
      // Untraced parity: the engine's own predict on the same snapshot
      // (its time is kept out of the replay's wall clock).
      const auto tp = Clock::now();
      const engine::SystemPrediction direct = eng.predict(*snap, q);
      const double dt = seconds_since(tp);
      out.predict.add(dt);
      untimed += dt;
      if (!bit_identical(direct, *latest)) ++out.parity_mismatches;
    }
    online::JournalRecord rec;
    rec.seq = next_seq++;
    rec.time = c.time;
    rec.handle = handle;
    rec.profile = snap->profile(handle);
    rec.revision = rec.profile->revision;
    append(std::move(rec));
  };

  const auto t0 = Clock::now();
  for (const std::vector<sim::Sample>& window : si.windows) {
    Scope root(tracer, "replay.window", -1, ++op);
    parent = root.id();
    std::vector<sim::Sample> clean(window.size());
    std::vector<bool> forwarded(window.size(), false);
    std::vector<Candidate> batch;
    for (std::size_t lane = 0; lane < window.size(); ++lane) {
      Lane& L = lanes[window[lane].die];
      {
        Scope s(tracer, "online.sanitize", parent, op);
        forwarded[lane] = L.sanitizer.sanitize(window[lane], &clean[lane]);
      }
      ++out.sanitized;
      if (!forwarded[lane]) {
        ++out.quarantined;
        continue;
      }
      Scope s(tracer, "online.stream", root.id(), op);
      parent = s.id();
      L.stream.push(clean[lane]);
      parent = root.id();
    }
    for (Candidate& c : pending) apply(c);
    pending.clear();
    std::optional<online::JournalRecord> power_record;
    if (window.size() == 2 && forwarded[0] && forwarded[1]) {
      // Re-assemble the machine-wide window from its die slices, as the
      // coordinator does before feeding the refitter.
      Scope s(tracer, "online.power_refit", parent, op);
      sim::Sample whole = clean[0];
      const sim::Sample& other = clean[1];
      for (std::size_t c = 0; c < whole.core_rates.size(); ++c)
        whole.core_rates[c] += other.core_rates[c];
      for (std::size_t p = 0; p < whole.occupancy.size(); ++p) {
        whole.occupancy[p] += other.occupancy[p];
        whole.process_delta[p] += other.process_delta[p];
        whole.process_cpu[p] += other.process_cpu[p];
      }
      std::optional<online::PowerRefitAttempt> attempt =
          refitter.push(whole, eng.power_model());
      if (attempt.has_value()) {
        ++out.refit_attempts;
        ++next_seq;  // every attempt is an event in the pipeline's log
        if (attempt->accepted) {
          engine::ApplyResult ar;
          {
            Scope a(tracer, "engine.try_apply", s.id(), op);
            ar = eng.try_apply(engine::Revision::power_model(*attempt->model));
          }
          if (ar.applied) {
            ++out.refit_accepted;
            power_record.emplace();
            power_record->seq = next_seq - 1;
            power_record->time = attempt->time;
            power_record->revision = eng.power_revision();
            power_record->power = eng.power_model();
          }
        }
      }
    }
    if (power_record.has_value()) append(std::move(*power_record));
  }
  // finish(): flush every builder's current phase, in slot order.
  {
    Scope root(tracer, "replay.window", -1, ++op);
    parent = root.id();
    for (std::size_t pid = 0; pid < kProcesses; ++pid) {
      const auto tf = Clock::now();
      std::optional<online::ProfileRevision> rev = builders[pid]->finish();
      tracer.record("online.fit", tf, Clock::now(), parent, op);
      if (!rev.has_value()) continue;
      Candidate c{pid, 0.0, std::move(*rev)};
      apply(c);
    }
    Scope y(tracer, "online.journal.sync", parent, op);
    writer.sync();
  }
  out.wall = seconds_since(t0) - untimed;
  writer.close();
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(journal, ec);
  if (!ec && out.appended > 0)
    out.bytes_per_event =
        static_cast<double>(bytes - online::kJournalHeader.size()) /
        static_cast<double>(out.appended);
  return out;
}

}  // namespace

Result run_stream(const RunOptions& opt) {
  Result r;
  const Inputs in = make_inputs(opt.seed);
  const StreamInputs si =
      make_stream_inputs(in, opt.seed, opt.tiny ? 300 : kWindows);
  std::filesystem::create_directories(opt.journal_dir);
  const auto journal = [&](const char* name) {
    return (std::filesystem::path(opt.journal_dir) / name).string();
  };
  const auto t_start = Clock::now();

  Series setups, publish, late, wps, cps, pass_wall, recover_s, events_per_s;
  for (int i = 0; i < (opt.tiny ? 2 : 6); ++i)
    setups.add(set_up(in, journal("setup.journal"), true).setup_s);

  if (!opt.trace) {
    // A warm-up pass, then paced passes; the latency metrics are the
    // medians of per-segment p50 and tail, so one disturbed stretch
    // cannot move them.
    const std::size_t passes =
        opt.tiny ? 1
                 : std::max<std::size_t>(
                       1, static_cast<std::size_t>(opt.seconds * kPacedShare *
                                                   kPacedRate / kWindows));
    for (std::size_t pass = 0; pass <= passes; ++pass) {
      Live l = set_up(in, journal("paced.journal"), true);
      setups.add(l.setup_s);
      Series warm_publish, warm_late;
      const PassStats ps =
          pass == 0 ? paced_pass(l, in, si, r, warm_publish, warm_late)
                    : paced_pass(l, in, si, r, publish, late);
      r.attempted += ps.pushed;
      r.failed += check_pass(r, ps);
      check_recovery(r, in, journal("paced.journal"), ps, recover_s,
                     events_per_s);
    }
    const std::size_t min_reps = opt.tiny ? 1 : 3;
    for (std::size_t rep = 0;
         rep < min_reps || (seconds_since(t_start) < opt.seconds && rep < 1000);
         ++rep) {
      Live l = set_up(in, journal("unpaced.journal"), true);
      setups.add(l.setup_s);
      const PassStats ps = unpaced_pass(l, si, false);
      r.attempted += ps.pushed;
      r.failed += check_pass(r, ps);
      pass_wall.add(ps.wall);
      wps.add(static_cast<double>(ps.pushed) / ps.wall);
      cps.add(static_cast<double>(ps.stats.resolves) / ps.wall);
      check_recovery(r, in, journal("unpaced.journal"), ps, recover_s,
                     events_per_s);
    }
    r.metric("setup_s", setups.median(), "s", setups.size(), 50.0);
    r.metric("candidates_per_s", cps.median(), "1/s", cps.size(), 50.0);
    // The client call is one unpaced pass: 1,500 windows pushed, then
    // finish() — closed loop, like a sweep batch. Publish latency in the
    // paced passes is dominated by how fast the host wakes a parked
    // shard worker, which drifts by 2x over minutes here, so it is
    // reported but bounds nothing.
    r.latency("query_ms", pass_wall, 1e3, "ms", kPassSegment);
    r.metric("windows_per_s", wps.median(), "1/s", wps.size(), 50.0);
    r.latency("publish_us", publish, 1e6, "us", kPublishSegment);
    r.metric("recover_s", recover_s.median(), "s", recover_s.size(), 50.0);
    r.metric("generator_late_us_p50", late.median() * 1e6, "us", late.size(),
             50.0);
    r.metric("generator_late_us_max", late.quantile(100.0) * 1e6, "us",
             late.size(), 100.0);
  } else {
    // Traced unpaced passes fill half the run; the push and backlog
    // figures are medians over them.
    PassStats ps;
    Series blocked, backlog;
    do {
      Live l = set_up(in, journal("unpaced.journal"), true);
      ps = unpaced_pass(l, si, true);
      r.attempted += ps.pushed;
      r.failed += check_pass(r, ps);
      check_recovery(r, in, journal("unpaced.journal"), ps, recover_s,
                     events_per_s);
      blocked.add(ps.push_wall / ps.wall);
      backlog.add(static_cast<double>(ps.max_backlog));
    } while (!opt.tiny && seconds_since(t_start) < opt.seconds / 2);
    r.metric("online.push.blocked_ratio", blocked.median(), "ratio",
             blocked.size());
    r.metric("online.backlog.max_windows", backlog.median(), "count",
             backlog.size());
    r.metric("engine.artifact.hit_ratio", ps.hit_ratio, "ratio",
             ps.cache_lookups);
    r.metric("online.recover.events_per_s", events_per_s.median(), "1/s",
             events_per_s.size());

    // Pairs of one inline single-shard pipeline pass (the measured
    // end-to-end time of the work) and one traced replay of the same
    // windows, interleaved so both halves of a pair see the same host
    // state, until the run's time is used. Coverage and overhead are
    // medians over the pairs; the stage metrics come from the last
    // replay.
    struct Traced {
      Tracer tracer;
      std::unique_ptr<engine::ModelEngine> engine;
      std::unique_ptr<QueryTracer> qt;
      Replay rp;
    };
    std::unique_ptr<Traced> last;
    Series coverage, overhead, inline_wall;
    PassStats ip;
    do {
      {
        Live inl = set_up(in, journal("inline.journal"), false);
        ip = unpaced_pass(inl, si, false);
      }
      auto t = std::make_unique<Traced>();
      t->engine = fresh_engine(in);
      t->qt = std::make_unique<QueryTracer>(*t->engine, t->tracer);
      t->rp = replay(in, si, journal("replay.journal"), *t->engine, *t->qt,
                     t->tracer);
      r.check("replay_revisions_match_pipeline")
          .expect(t->rp.revisions == ps.stats.revisions &&
                      t->rp.revisions == ip.stats.revisions,
                  "traced replay applied " + std::to_string(t->rp.revisions) +
                      " revisions, pipelines " +
                      std::to_string(ps.stats.revisions) + " / " +
                      std::to_string(ip.stats.revisions));
      r.check("trace_reprice_parity")
          .expect(t->rp.parity_mismatches == 0 && t->rp.degraded == 0,
                  "traced re-solve differs from ModelEngine::predict");
      // Coverage counts the stages on the pipeline's ingest path.
      // Journal append/sync run on the pipeline's writer thread, off
      // that path, so they are reported below but kept out of the
      // numerator — and out of the replay wall the overhead compares.
      const double journal_s = t->tracer.self_time("online.journal.");
      const double stages = t->tracer.self_time("online.") +
                            t->tracer.self_time("engine.") +
                            t->tracer.self_time("core.") - journal_s;
      coverage.add(stages / ip.wall);
      overhead.add((t->rp.wall - journal_s - ip.wall) / ip.wall);
      inline_wall.add(ip.wall);
      last = std::move(t);
    } while (!opt.tiny && seconds_since(t_start) < opt.seconds &&
             coverage.size() < 200);
    const Tracer& tracer = last->tracer;
    const Replay& rp = last->rp;

    const auto us = [&](const char* span) {
      return tracer.durations(span).median() * 1e6;
    };
    const auto n = [&](const char* span) {
      return tracer.durations(span).size();
    };
    r.metric("engine.predict.us_p50", rp.predict.median() * 1e6, "us",
             rp.predict.size());
    r.metric("engine.try_apply.us_p50", us("engine.try_apply"), "us",
             n("engine.try_apply"));
    last->qt->report_kernels(r);
    r.metric("online.sanitize.us_p50", us("online.sanitize"), "us",
             n("online.sanitize"));
    r.metric("online.sanitize.quarantine_ratio",
             rp.sanitized > 0 ? static_cast<double>(rp.quarantined) /
                                    static_cast<double>(rp.sanitized)
                              : 0.0,
             "ratio", rp.sanitized);
    r.metric("online.builder.us_p50", us("online.builder"), "us",
             n("online.builder"));
    r.metric("online.fit.us_p50", us("online.fit"), "us", n("online.fit"));
    r.metric("online.resolve.us_p50", us("online.resolve"), "us",
             n("online.resolve"));
    r.metric("online.journal.append_us_p50", us("online.journal.append"), "us",
             n("online.journal.append"));
    r.metric("online.journal.sync_us_p50", us("online.journal.sync"), "us",
             n("online.journal.sync"));
    r.metric("online.journal.bytes_per_event", rp.bytes_per_event, "bytes",
             rp.appended);
    r.metric("online.power_refit.us_p50", us("online.power_refit"), "us",
             n("online.power_refit"));
    r.metric("online.power_refit.accept_ratio",
             rp.refit_attempts > 0 ? static_cast<double>(rp.refit_accepted) /
                                         static_cast<double>(rp.refit_attempts)
                                   : 0.0,
             "ratio", rp.refit_attempts);
    r.metric("trace.online.coverage", coverage.median(), "ratio",
             coverage.size());
    r.metric("trace.overhead_ratio", overhead.median(), "ratio",
             overhead.size());
    r.note("replay.revisions", std::to_string(rp.revisions));
    r.note("inline_pipeline_wall_s", std::to_string(inline_wall.median()));
  }
  r.note("windows_generated", std::to_string(si.generated));
  r.note("windows_delivered", std::to_string(si.windows.size()));
  r.note("phase_switches", std::to_string(si.phase_switches));
  r.note("dvfs_steps", std::to_string(si.dvfs_steps));
  r.note("faults_injected", std::to_string(si.faults));
  r.note("paced_rate_windows_per_s", std::to_string(kPacedRate));
  return r;
}

}  // namespace perfbench

// Durability corpus (ISSUE 8): journal framing round-trips, the
// corrupt-journal corpus (bit flips, truncation at every frame
// boundary, torn tails, stale checkpoints), and the acceptance bar —
// kill the journal at every frame and recover engine state
// byte-identical to the uncrashed run at the last durable event.
#include "repro/online/journal.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "repro/common/durable_file.hpp"
#include "repro/core/power_model.hpp"
#include "repro/engine/checkpoint.hpp"
#include "repro/engine/model_engine.hpp"
#include "repro/online/sharded_pipeline.hpp"
#include "repro/sim/machine.hpp"

namespace repro::online {
namespace {

core::ProcessProfile seed_profile(std::size_t i, double ways) {
  core::FeatureVector f;
  f.name = "proc" + std::to_string(i);
  std::vector<double> hist(6);
  double total = 0.25;  // tail
  for (std::size_t b = 0; b < hist.size(); ++b)
    total += (hist[b] = 0.05 + 0.02 * static_cast<double>((i + b) % 4));
  for (double& h : hist) h /= total;
  f.histogram = core::ReuseHistogram(std::move(hist), 0.25 / total);
  f.api = 0.01;
  f.alpha = 4.0e-9;
  f.beta = 2.0e-9;

  core::ProcessProfile p;
  p.name = f.name;
  p.alone.l1rpi = 0.4;
  p.alone.l2rpi = f.api;
  p.alone.brpi = 0.1;
  p.alone.fppi = 0.03;
  p.alone.l2mpr = f.histogram.mpa(ways);
  p.alone.spi = f.spi_at(p.alone.l2mpr);
  p.power_alone = 55.0;
  p.features = std::move(f);
  return p;
}

/// One plausible single-process window; occupancy sweeps so every
/// builder refit is a clean Eq. 3 fit.
sim::Sample make_window(std::uint64_t seq, std::uint32_t machine_cores) {
  sim::Sample s;
  s.duration = 0.03;
  s.time = 0.03 * static_cast<double>(seq + 1);
  s.seq = seq;
  s.die = 0;
  s.core_rates.resize(machine_cores);
  s.occupancy.assign(1, 0.0);
  s.process_delta.resize(1);
  s.process_cpu.assign(1, 0.0);
  const double occ = 2.0 + 2.0 * static_cast<double>(seq % 6);
  const double mpa = 0.25 - 0.015 * occ;
  const double instructions = 3.0e6;
  hpc::Counters& d = s.process_delta[0];
  d.instructions = instructions;
  d.cycles = 2.0 * instructions;
  d.l1_refs = 0.4 * instructions;
  d.l2_refs = 0.01 * instructions;
  d.l2_misses = mpa * d.l2_refs;
  d.branches = 0.1 * instructions;
  d.fp_ops = 0.03 * instructions;
  s.process_cpu[0] = instructions * (2.0e-9 + 4.0e-9 * mpa);
  s.occupancy[0] = occ;
  return s;
}

core::PowerModel test_power(std::uint32_t cores) {
  return core::PowerModel(45.0, {6.0e-9, 2.2e-8, -1.0e-7, 4.5e-9, 5.5e-9},
                          cores);
}

engine::ModelEngine fresh_engine(const sim::MachineConfig& machine) {
  engine::EngineOptions o;
  o.threads = 1;
  return engine::ModelEngine(machine, test_power(machine.cores), o);
}

/// State yardstick: the canonical serialization + the power-revision
/// counter. Two engines with equal keys are byte-identical as far as
/// any model consumer can observe.
std::string state_key(const engine::ModelEngine& engine) {
  const auto snap = engine.snapshot();
  return engine::engine_state_text(*snap) + "#power_revision " +
         std::to_string(snap->power_revision());
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << "failed to write " << path;
}

/// An uncrashed reference run: a single cold-start process driven
/// through `windows` windows with journaling on, capturing the engine
/// state after every journaled frame.
struct Reference {
  std::string journal_path;
  std::string journal_bytes;
  /// state_after[k] = state with exactly the first k frames applied.
  std::vector<std::string> state_after;
  std::uint64_t frames = 0;
  std::uint64_t next_seq = 0;
};

Reference run_reference(const std::string& tag, std::uint64_t windows,
                        const sim::MachineConfig& machine) {
  Reference ref;
  ref.journal_path = ::testing::TempDir() + "/journal_" + tag + ".wal";
  engine::ModelEngine engine = fresh_engine(machine);

  ShardedPipelineOptions o;
  o.builder.refit_interval = 4;
  o.builder.min_fit_windows = 3;
  o.durability.journal_path = ref.journal_path;
  o.durability.journal.fsync = JournalFsync::kOff;
  o.durability.recover = false;  // always start a fresh journal
  ShardedPipeline pipe(engine, o);
  // Cold start: the first applied revision registers the process, so
  // the journal's first frame exercises replay's registration branch.
  pipe.monitor(0, 0, std::string("proc0"));

  ref.state_after.push_back(state_key(engine));
  const auto capture = [&] {
    const std::uint64_t journaled = pipe.snapshot().stats.journaled_events;
    // Single process, no power refits: each push journals at most one
    // frame, so every frame boundary's state is captured exactly.
    while (ref.state_after.size() <= journaled)
      ref.state_after.push_back(state_key(engine));
  };
  for (std::uint64_t seq = 0; seq < windows; ++seq) {
    pipe.push(make_window(seq, machine.cores));
    capture();
  }
  pipe.finish();
  capture();
  ref.frames = pipe.snapshot().stats.journaled_events;
  ref.next_seq = pipe.snapshot().next_cursor;

  const auto bytes = common::read_file(ref.journal_path);
  EXPECT_TRUE(bytes.has_value());
  ref.journal_bytes = bytes.value_or("");
  return ref;
}

TEST(Journal, EncodeDecodeRoundTripsBothKinds) {
  JournalRecord profile;
  profile.seq = 7;
  profile.time = 1.25;
  profile.handle = 3;
  profile.revision = 12;
  profile.profile = seed_profile(0, 8.0);
  profile.profile->revision = 12;
  std::string error;
  const auto decoded_profile =
      decode_record(encode_record(profile), &error);
  ASSERT_TRUE(decoded_profile.has_value()) << error;
  EXPECT_TRUE(decoded_profile->is_profile());
  EXPECT_EQ(decoded_profile->seq, 7u);
  EXPECT_EQ(decoded_profile->handle, 3u);
  EXPECT_EQ(decoded_profile->revision, 12u);
  EXPECT_EQ(decoded_profile->profile->name, "proc0");
  EXPECT_EQ(decoded_profile->profile->revision, 12u);

  JournalRecord power;
  power.seq = 8;
  power.time = 1.5;
  power.revision = 2;
  power.power = test_power(4);
  const auto decoded_power = decode_record(encode_record(power), &error);
  ASSERT_TRUE(decoded_power.has_value()) << error;
  EXPECT_FALSE(decoded_power->is_profile());
  EXPECT_EQ(decoded_power->revision, 2u);
  EXPECT_DOUBLE_EQ(decoded_power->power->idle_total(), 45.0);
}

TEST(Journal, DecodeRejectsMalformedPayloads) {
  std::string error;
  EXPECT_FALSE(decode_record("no newline here", &error).has_value());
  EXPECT_NE(error.find("no header line"), std::string::npos);
  EXPECT_FALSE(decode_record("wibble 1 2\nbody\n", &error).has_value());
  EXPECT_NE(error.find("unknown record kind"), std::string::npos);
  EXPECT_FALSE(decode_record("profile 1 2\nend\n", &error).has_value());
  EXPECT_NE(error.find("bad record header"), std::string::npos);
  // Well-formed header, body that is not exactly one profile.
  EXPECT_FALSE(decode_record("profile 1 0.5 0 1\n", &error).has_value());
  EXPECT_NE(error.find("exactly one profile"), std::string::npos);
}

TEST(Journal, CleanJournalScansWithoutTruncation) {
  const sim::MachineConfig machine = sim::four_core_server();
  const Reference ref = run_reference("clean", 40, machine);
  ASSERT_GT(ref.frames, 3u) << "reference run journaled too little";

  const JournalRecovery scan = scan_journal(ref.journal_path);
  EXPECT_TRUE(scan.found);
  EXPECT_TRUE(scan.error.empty()) << scan.error;
  EXPECT_EQ(scan.records.size(), ref.frames);
  EXPECT_EQ(scan.valid_bytes, ref.journal_bytes.size());
  EXPECT_EQ(scan.dropped_bytes, 0u);
  EXPECT_EQ(scan.truncated_frames, 0u);
  // Frames carry strictly increasing seqs.
  for (std::size_t i = 1; i < scan.records.size(); ++i)
    EXPECT_GT(scan.records[i].seq, scan.records[i - 1].seq);
}

TEST(Journal, MissingFileIsNotAnError) {
  const JournalRecovery scan =
      scan_journal(::testing::TempDir() + "/journal_never_written.wal");
  EXPECT_FALSE(scan.found);
  EXPECT_TRUE(scan.error.empty());
}

TEST(Journal, ForeignHeaderRefusesWholeFile) {
  const std::string path = ::testing::TempDir() + "/journal_foreign.wal";
  write_bytes(path, "totally not a journal\nmore bytes\n");
  const JournalRecovery scan = scan_journal(path);
  EXPECT_TRUE(scan.found);
  EXPECT_NE(scan.error.find("journal header: not a repro-journal v1 file"),
            std::string::npos)
      << scan.error;
  EXPECT_EQ(scan.records.size(), 0u);
  EXPECT_EQ(scan.valid_bytes, 0u);
}

TEST(Journal, BitFlipStopsScanAtExactFrameWithChecksumMessage) {
  const sim::MachineConfig machine = sim::four_core_server();
  const Reference ref = run_reference("bitflip", 40, machine);
  const JournalRecovery clean = scan_journal(ref.journal_path);
  ASSERT_GE(clean.records.size(), 3u);

  // Flip one payload bit in every frame, one corruption per scan: the
  // scan must stop at exactly that frame, keep every earlier frame,
  // and name the frame in its message.
  for (std::size_t victim = 0; victim < clean.records.size(); ++victim) {
    const std::uint64_t start =
        victim == 0 ? kJournalHeader.size() : clean.frame_ends[victim - 1];
    std::string bytes = ref.journal_bytes;
    bytes[start + 8 + 2] ^= 0x40;  // third payload byte
    const std::string path =
        ::testing::TempDir() + "/journal_bitflip_case.wal";
    write_bytes(path, bytes);

    const JournalRecovery scan = scan_journal(path);
    EXPECT_EQ(scan.records.size(), victim);
    const std::string tag =
        "journal frame " + std::to_string(victim + 1) + ":";
    EXPECT_NE(scan.error.find(tag), std::string::npos)
        << "frame " << victim << ": " << scan.error;
    EXPECT_NE(scan.error.find("payload checksum mismatch"),
              std::string::npos)
        << scan.error;
    EXPECT_EQ(scan.valid_bytes, start);
    EXPECT_EQ(scan.dropped_bytes, bytes.size() - start);
    EXPECT_EQ(scan.truncated_frames, 1u);
  }
}

TEST(Journal, TruncationAtEveryFrameBoundaryKeepsExactPrefix) {
  const sim::MachineConfig machine = sim::four_core_server();
  const Reference ref = run_reference("boundary", 40, machine);
  const JournalRecovery clean = scan_journal(ref.journal_path);
  ASSERT_GE(clean.records.size(), 3u);

  const std::string path = ::testing::TempDir() + "/journal_boundary.wal";
  for (std::size_t keep = 0; keep <= clean.records.size(); ++keep) {
    const std::uint64_t cut =
        keep == 0 ? kJournalHeader.size() : clean.frame_ends[keep - 1];
    write_bytes(path, ref.journal_bytes.substr(0, cut));
    const JournalRecovery scan = scan_journal(path);
    // A cut at a frame boundary is a short journal, not a torn one.
    EXPECT_TRUE(scan.error.empty()) << "keep=" << keep << ": " << scan.error;
    EXPECT_EQ(scan.records.size(), keep);
    EXPECT_EQ(scan.valid_bytes, cut);
    EXPECT_EQ(scan.truncated_frames, 0u);
  }
}

TEST(Journal, TornTailIsTruncatedNeverFatal) {
  const sim::MachineConfig machine = sim::four_core_server();
  const Reference ref = run_reference("torn", 40, machine);
  const JournalRecovery clean = scan_journal(ref.journal_path);
  ASSERT_GE(clean.records.size(), 2u);
  const std::uint64_t last_good =
      clean.frame_ends[clean.records.size() - 2];
  const std::string path = ::testing::TempDir() + "/journal_torn.wal";

  // Torn inside the final frame's 8-byte header.
  write_bytes(path, ref.journal_bytes.substr(0, last_good + 5));
  JournalRecovery scan = scan_journal(path);
  EXPECT_EQ(scan.records.size(), clean.records.size() - 1);
  EXPECT_NE(scan.error.find("torn frame header (5 of 8 bytes)"),
            std::string::npos)
      << scan.error;
  EXPECT_EQ(scan.valid_bytes, last_good);
  EXPECT_EQ(scan.truncated_frames, 1u);

  // Torn mid-payload.
  write_bytes(path, ref.journal_bytes.substr(0, last_good + 8 + 11));
  scan = scan_journal(path);
  EXPECT_EQ(scan.records.size(), clean.records.size() - 1);
  EXPECT_NE(scan.error.find("torn payload (11 of "), std::string::npos)
      << scan.error;
  EXPECT_EQ(scan.valid_bytes, last_good);

  // An implausible length field (corrupted to ~4 GiB) must stop the
  // scan instead of attempting the allocation.
  std::string bytes = ref.journal_bytes.substr(0, last_good + 8);
  bytes[last_good + 0] = static_cast<char>(0xFF);
  bytes[last_good + 1] = static_cast<char>(0xFF);
  bytes[last_good + 2] = static_cast<char>(0xFF);
  bytes[last_good + 3] = static_cast<char>(0xFE);
  write_bytes(path, bytes);
  scan = scan_journal(path);
  EXPECT_EQ(scan.records.size(), clean.records.size() - 1);
  EXPECT_NE(scan.error.find("implausible frame length"), std::string::npos)
      << scan.error;
}

TEST(Journal, KillAtEveryFrameRecoversByteIdenticalState) {
  // THE acceptance criterion: for every prefix of the journal (every
  // "kill point"), a fresh engine recovered from that prefix must be
  // byte-identical to the uncrashed run's engine at that same event —
  // same canonical serialization, same power-revision counter.
  const sim::MachineConfig machine = sim::four_core_server();
  const Reference ref = run_reference("kill", 60, machine);
  const JournalRecovery clean = scan_journal(ref.journal_path);
  ASSERT_GE(clean.records.size(), 5u);
  ASSERT_EQ(ref.state_after.size(), clean.records.size() + 1);

  const std::string path = ::testing::TempDir() + "/journal_kill.wal";
  for (std::size_t kill = 0; kill <= clean.records.size(); ++kill) {
    const std::uint64_t cut =
        kill == 0 ? kJournalHeader.size() : clean.frame_ends[kill - 1];
    // Kill mid-frame too: everything past the cut is a torn tail that
    // recovery must shrug off without losing the durable prefix.
    const std::uint64_t torn_extra =
        kill < clean.records.size() ? 3u : 0u;
    write_bytes(path, ref.journal_bytes.substr(0, cut + torn_extra));

    engine::ModelEngine engine = fresh_engine(machine);
    const RecoveryReport report = recover_engine(engine, "", path);
    EXPECT_EQ(report.replayed, kill);
    EXPECT_TRUE(report.replay_error.empty()) << report.replay_error;
    EXPECT_EQ(report.durable_bytes, cut);
    EXPECT_EQ(state_key(engine), ref.state_after[kill])
        << "kill point " << kill << " diverged from the uncrashed run";
    if (kill > 0)
      EXPECT_EQ(report.next_seq, clean.records[kill - 1].seq + 1);
  }
}

TEST(Journal, CheckpointPlusTailReplayMatchesUncrashedRun) {
  // Stale checkpoint + longer journal: records the checkpoint already
  // folded in must be skipped, the tail replayed, and the result must
  // still match the uncrashed run byte for byte.
  const sim::MachineConfig machine = sim::four_core_server();
  const std::string journal_path =
      ::testing::TempDir() + "/journal_ckpt.wal";
  const std::string checkpoint_path =
      ::testing::TempDir() + "/journal_ckpt.store";

  engine::ModelEngine engine = fresh_engine(machine);
  ShardedPipelineOptions o;
  o.builder.refit_interval = 4;
  o.builder.min_fit_windows = 3;
  o.durability.journal_path = journal_path;
  o.durability.journal.fsync = JournalFsync::kOff;
  o.durability.checkpoint_path = checkpoint_path;
  o.durability.recover = false;
  ShardedPipeline pipe(engine, o);
  pipe.monitor(0, 0, std::string("proc0"));

  for (std::uint64_t seq = 0; seq < 30; ++seq)
    pipe.push(make_window(seq, machine.cores));
  ASSERT_TRUE(pipe.checkpoint());  // mid-run checkpoint, journal runs on
  for (std::uint64_t seq = 30; seq < 60; ++seq)
    pipe.push(make_window(seq, machine.cores));
  pipe.finish();
  const std::string uncrashed = state_key(engine);
  const PipelineStats stats = pipe.snapshot().stats;
  ASSERT_EQ(stats.checkpoints, 1u);
  ASSERT_GT(stats.journaled_events, 0u);

  engine::ModelEngine recovered = fresh_engine(machine);
  const RecoveryReport report =
      recover_engine(recovered, checkpoint_path, journal_path);
  EXPECT_TRUE(report.checkpoint_found);
  EXPECT_GT(report.journal_next, 0u);
  EXPECT_GT(report.skipped, 0u) << "checkpointed frames must be skipped";
  EXPECT_GT(report.replayed, 0u) << "the tail must replay";
  EXPECT_TRUE(report.replay_error.empty()) << report.replay_error;
  EXPECT_EQ(state_key(recovered), uncrashed);
}

TEST(Journal, CorruptCheckpointFallsBackToFullReplay) {
  const sim::MachineConfig machine = sim::four_core_server();
  const Reference ref = run_reference("ckptfall", 40, machine);

  // A checkpoint with one flipped byte must be refused (checksum) and
  // recovery must fall back to replaying the whole journal from seq 0.
  engine::ModelEngine pristine = fresh_engine(machine);
  engine::save_checkpoint(::testing::TempDir() + "/ckpt_corrupt.store",
                          *pristine.snapshot(), 999);
  auto text = common::read_file(::testing::TempDir() + "/ckpt_corrupt.store");
  ASSERT_TRUE(text.has_value());
  (*text)[text->size() / 2] ^= 0x01;
  write_bytes(::testing::TempDir() + "/ckpt_corrupt.store", *text);

  engine::ModelEngine engine = fresh_engine(machine);
  const RecoveryReport report = recover_engine(
      engine, ::testing::TempDir() + "/ckpt_corrupt.store", ref.journal_path);
  EXPECT_FALSE(report.checkpoint_found);
  EXPECT_NE(report.checkpoint_error.find("checkpoint checksum mismatch"),
            std::string::npos)
      << report.checkpoint_error;
  EXPECT_EQ(report.journal_next, 0u) << "fallback must replay from seq 0";
  EXPECT_EQ(report.replayed, ref.frames);
  EXPECT_EQ(state_key(engine), ref.state_after.back());
}

TEST(Journal, PipelineRestartResumesSeqSpaceAndTruncatesTornTail) {
  const sim::MachineConfig machine = sim::four_core_server();
  const Reference ref = run_reference("resume", 40, machine);
  ASSERT_GT(ref.frames, 2u);

  // Simulate a crash that tore the last frame mid-payload.
  const JournalRecovery clean = scan_journal(ref.journal_path);
  const std::uint64_t last_good =
      clean.frame_ends[clean.records.size() - 2];
  const std::string path = ::testing::TempDir() + "/journal_resume.wal";
  write_bytes(path, ref.journal_bytes.substr(0, last_good + 8 + 5));

  engine::ModelEngine engine = fresh_engine(machine);
  ShardedPipelineOptions o;
  o.builder.refit_interval = 4;
  o.builder.min_fit_windows = 3;
  o.durability.journal_path = path;
  o.durability.journal.fsync = JournalFsync::kOff;
  o.durability.recover = true;
  ShardedPipeline pipe(engine, o);
  pipe.monitor(0, 0, std::string("proc0"));

  const RecoveryReport& report = pipe.recovery();
  EXPECT_EQ(report.replayed, ref.frames - 1);
  EXPECT_EQ(report.journal.truncated_frames, 1u);
  const std::uint64_t resumed_seq = report.next_seq;
  EXPECT_EQ(resumed_seq, clean.records[ref.frames - 2].seq + 1);
  EXPECT_EQ(pipe.snapshot().stats.health.recovery_truncated_frames, 1u);

  // New work continues the seq space past the recovered point and the
  // reopened journal holds exactly prefix + new frames (torn tail cut).
  for (std::uint64_t seq = 100; seq < 130; ++seq)
    pipe.push(make_window(seq, machine.cores));
  pipe.finish();
  const std::vector<PipelineEvent> fresh = pipe.events_since(0);
  ASSERT_FALSE(fresh.empty());
  for (const PipelineEvent& e : fresh) EXPECT_GE(e.seq, resumed_seq);

  const JournalRecovery rescan = scan_journal(path);
  EXPECT_TRUE(rescan.error.empty()) << rescan.error;
  EXPECT_EQ(rescan.records.size(),
            ref.frames - 1 + pipe.snapshot().stats.journaled_events);
  // A second recovery over the extended journal lands on the live
  // engine's exact state — the journal is self-consistent across the
  // restart boundary.
  engine::ModelEngine again = fresh_engine(machine);
  const RecoveryReport second = recover_engine(again, "", path);
  EXPECT_TRUE(second.replay_error.empty()) << second.replay_error;
  EXPECT_EQ(state_key(again), state_key(engine));
}

TEST(Journal, PowerRecordReplayVerifiesRevisionCounter) {
  const sim::MachineConfig machine = sim::four_core_server();
  const std::string path = ::testing::TempDir() + "/journal_power.wal";

  JournalOptions options;
  options.fsync = JournalFsync::kOff;
  JournalWriter writer;
  ASSERT_TRUE(writer.open(path, options, 0));
  JournalRecord record;
  record.seq = 0;
  record.time = 0.5;
  record.revision = 1;  // engine counter after the first apply
  record.power = core::PowerModel(
      50.0, {7.0e-9, 2.0e-8, -1.0e-7, 4.0e-9, 5.0e-9}, machine.cores);
  ASSERT_TRUE(writer.append(record));
  ASSERT_TRUE(writer.sync());
  writer.close();

  engine::ModelEngine engine = fresh_engine(machine);
  const RecoveryReport report = recover_engine(engine, "", path);
  EXPECT_EQ(report.replayed, 1u);
  EXPECT_TRUE(report.replay_error.empty()) << report.replay_error;
  EXPECT_EQ(engine.power_revision(), 1u);
  EXPECT_DOUBLE_EQ(engine.power_model().idle_total(), 50.0);

  // A revision counter that does not match what the engine computes is
  // a divergence: replay must stop and say why.
  record.seq = 1;
  record.revision = 7;  // the engine will be at 2
  JournalWriter extend;
  ASSERT_TRUE(extend.open(path, options,
                          scan_journal(path).valid_bytes));
  ASSERT_TRUE(extend.append(record));
  ASSERT_TRUE(extend.sync());
  extend.close();

  engine::ModelEngine fresh = fresh_engine(machine);
  const RecoveryReport diverged = recover_engine(fresh, "", path);
  EXPECT_EQ(diverged.replayed, 1u);
  EXPECT_NE(diverged.replay_error.find("journal replay seq 1:"),
            std::string::npos)
      << diverged.replay_error;
  EXPECT_NE(diverged.replay_error.find("power revision mismatch"),
            std::string::npos)
      << diverged.replay_error;
}

// A single-lane pipeline restart recovers the exact state the previous
// run left behind, checkpoint plus journal tail.
TEST(Journal, PeriodicCheckpointPlusJournalTailRecovers) {
  const sim::MachineConfig machine = sim::four_core_server();
  const std::string journal = ::testing::TempDir() + "/journal_single.wal";
  const std::string checkpoint =
      ::testing::TempDir() + "/checkpoint_single.txt";

  std::string live_state;
  std::uint64_t journaled = 0;
  {
    engine::ModelEngine engine = fresh_engine(machine);
    ShardedPipelineOptions o;
    o.builder.refit_interval = 4;
    o.builder.min_fit_windows = 3;
    o.durability.journal_path = journal;
    o.durability.checkpoint_path = checkpoint;
    o.durability.checkpoint_every = 3;
    o.durability.journal.fsync = JournalFsync::kOff;
    o.durability.recover = false;  // fresh journal for the reference
    ShardedPipeline pipe(engine, o);
    pipe.monitor(0, /*die=*/0, std::string("proc0"));
    for (std::uint64_t seq = 0; seq < 40; ++seq)
      pipe.push(make_window(seq, machine.cores));
    pipe.finish();
    journaled = pipe.snapshot().stats.journaled_events;
    EXPECT_GT(journaled, 3u);
    EXPECT_GT(pipe.snapshot().stats.checkpoints, 0u);
    live_state = state_key(engine);
  }

  engine::ModelEngine engine = fresh_engine(machine);
  ShardedPipelineOptions o;
  o.durability.journal_path = journal;
  o.durability.checkpoint_path = checkpoint;
  o.durability.journal.fsync = JournalFsync::kOff;
  ShardedPipeline pipe(engine, o);  // recover defaults to on
  const RecoveryReport& report = pipe.recovery();
  EXPECT_TRUE(report.checkpoint_found) << report.checkpoint_error;
  EXPECT_TRUE(report.replay_error.empty()) << report.replay_error;
  EXPECT_EQ(report.replayed + report.skipped, journaled);
  EXPECT_GT(report.skipped, 0u);  // the checkpoint absorbed a prefix
  EXPECT_EQ(state_key(engine), live_state);
}

// checkpoint_every counts state-changing events, not journal appends:
// with no journal attached, a checkpoint after every applied revision
// alone recovers the live state.
TEST(Journal, PeriodicCheckpointWithoutJournalRecovers) {
  const sim::MachineConfig machine = sim::four_core_server();
  const std::string checkpoint =
      ::testing::TempDir() + "/checkpoint_no_journal.txt";
  std::remove(checkpoint.c_str());

  std::string live_state;
  {
    engine::ModelEngine engine = fresh_engine(machine);
    ShardedPipelineOptions o;
    o.builder.refit_interval = 4;
    o.builder.min_fit_windows = 3;
    o.durability.checkpoint_path = checkpoint;
    o.durability.checkpoint_every = 1;
    o.durability.recover = false;
    ShardedPipeline pipe(engine, o);
    pipe.monitor(0, /*die=*/0, std::string("proc0"));
    for (std::uint64_t seq = 0; seq < 40; ++seq)
      pipe.push(make_window(seq, machine.cores));
    pipe.finish();
    const PipelineStats stats = pipe.snapshot().stats;
    EXPECT_EQ(stats.journaled_events, 0u);
    EXPECT_GT(stats.revisions, 1u);
    EXPECT_EQ(stats.checkpoints, stats.revisions);
    live_state = state_key(engine);
  }

  engine::ModelEngine engine = fresh_engine(machine);
  ShardedPipelineOptions o;
  o.durability.checkpoint_path = checkpoint;
  ShardedPipeline pipe(engine, o);
  const RecoveryReport& report = pipe.recovery();
  EXPECT_TRUE(report.checkpoint_found) << report.checkpoint_error;
  EXPECT_EQ(report.replayed, 0u);
  EXPECT_EQ(state_key(engine), live_state);
}

}  // namespace
}  // namespace repro::online

// Persistence for profiles and power models.
//
// Profiling (§3.4) and power-model training (§4.1) are the expensive,
// once-per-machine steps of the framework — on real hardware hours of
// stressmark runs and clamp measurements. This module stores their
// results in a line-oriented text format so tools and benches can
// profile once and reuse: exactly how the paper's system would deploy
// (profile a new application once, keep its feature vector).
//
// Format (one record per line group, '#' comments allowed):
//   profile v1 <name>
//   revision <n>            (optional; 0 = batch profile, omitted)
//   api/alpha/beta/power_alone <value>
//   alone <l1rpi> <l2rpi> <brpi> <fppi> <l2mpr> <spi>
//   hist <tail_mass> <p1> <p2> …
//   mpa_curve <m1> … ; spi_curve <s1> …
//   end
//   power_model v1 <cores> <idle_total> <c1> … <c5>
//
// Checkpoints (ISSUE 8) reuse the store body verbatim, bracketed by a
// meta line and a whole-file checksum footer so recovery can tell a
// torn or rotten checkpoint from a valid one before trusting a single
// value in it:
//   # cmp_models checkpoint
//   checkpoint v1 epoch <e> power_revision <r> journal_next <s>
//   <store body: profiles + optional power_model>
//   checksum crc32c <8-hex-digits>
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "repro/core/power_model.hpp"
#include "repro/core/profiler.hpp"

namespace repro::core {

/// The record writers every store, checkpoint and journal frame is
/// built from: each appends one record's bytes to `out`. The journal
/// encodes a record per applied revision, so its hot path appends
/// straight into the frame buffer.
void append_profile(std::string& out, const ProcessProfile& profile);
void append_power_model(std::string& out, const PowerModel& model);

/// Parse every record in the stream. Throws repro::Error on malformed
/// input. Returns all profiles plus the last power model, if any.
struct ModelStore {
  std::vector<ProcessProfile> profiles;
  std::optional<PowerModel> power_model;

  const ProcessProfile* find(const std::string& name) const;
};
ModelStore read_store(std::istream& is);

/// File-level convenience. save_store overwrites.
void save_store(const std::string& path, const ModelStore& store);
std::optional<ModelStore> load_store(const std::string& path);

/// Exactly the bytes save_store would write, as a string. The
/// durability tests define "byte-identical engine state" over this
/// serialization (max_digits10 gives doubles an exact round-trip).
std::string write_store_text(const ModelStore& store);

/// Counters a checkpoint freezes alongside the store body.
///   epoch           engine snapshot epoch at checkpoint time
///   power_revision  engine power revision counter
///   journal_next    first journal event seq NOT folded into this
///                   checkpoint — replay starts here
struct CheckpointMeta {
  std::uint64_t epoch = 0;
  std::uint64_t power_revision = 0;
  std::uint64_t journal_next = 0;
};

struct Checkpoint {
  CheckpointMeta meta;
  ModelStore store;
};

/// Render a checkpoint: meta line, store body, CRC-32C footer over
/// every preceding byte.
std::string write_checkpoint_text(const CheckpointMeta& meta,
                                  const ModelStore& store);

/// Parse + verify a checkpoint. Throws repro::Error with a
/// "checkpoint ..." message on a missing/mismatched footer, a bad meta
/// line, or any store-body corruption.
Checkpoint read_checkpoint(std::string_view text);

}  // namespace repro::core

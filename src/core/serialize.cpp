#include "repro/core/serialize.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "repro/common/crc32c.hpp"
#include "repro/common/ensure.hpp"

namespace repro::core {

namespace {

// Shortest round-trip rendering (std::to_chars): the value parses back
// bit-exactly, like the old max_digits10 iostream path, but an order
// of magnitude cheaper. Records build into a plain string and hit the
// stream once — this is the journal writer's per-event hot loop, where
// every profile revision renders three double vectors, and per-value
// ostream insertions (sentry + virtual streambuf each) would dominate
// the encode.
void append_double(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  REPRO_ENSURE(res.ec == std::errc(), "double rendering failed");
  out.append(buf, res.ptr);
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[20];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void append_doubles(std::string& out, const char* key,
                    std::span<const double> values) {
  out += key;
  for (double v : values) {
    out += ' ';
    append_double(out, v);
  }
  out += '\n';
}

/// The store body every writer shares: each profile, then the power
/// model if there is one.
void append_store_body(std::string& out, const ModelStore& store) {
  for (const ProcessProfile& p : store.profiles) append_profile(out, p);
  if (store.power_model) append_power_model(out, *store.power_model);
}

std::vector<double> parse_doubles(std::istringstream& is,
                                  const std::string& context) {
  std::vector<double> out;
  double v;
  while (is >> v) out.push_back(v);
  REPRO_ENSURE(is.eof(), "trailing garbage in " + context);
  return out;
}

}  // namespace

void append_profile(std::string& out, const ProcessProfile& p) {
  REPRO_ENSURE(p.name.find_first_of(" \n") == std::string::npos,
               "profile names must not contain whitespace");
  out.reserve(out.size() + 512 +
              24 * (p.features.histogram.max_depth() + p.mpa_at_ways.size() +
                    p.spi_at_ways.size()));
  out += "profile v1 ";
  out += p.name;
  out += '\n';
  // Revision 0 (batch profiles) is the default, so seed-era stores
  // stay byte-identical and older readers never see the key.
  if (p.revision != 0) {
    out += "revision ";
    append_u64(out, p.revision);
    out += '\n';
  }
  // Optional like `revision`: the 0 sentinel (legacy profile, clock
  // unknown) is never written, so seed-era stores stay byte-identical
  // and legacy stores read back with fit_frequency 0.
  if (p.features.fit_frequency > 0.0) {
    out += "fit_frequency ";
    append_double(out, p.features.fit_frequency);
    out += '\n';
  }
  out += "api ";
  append_double(out, p.features.api);
  out += "\nalpha ";
  append_double(out, p.features.alpha);
  out += "\nbeta ";
  append_double(out, p.features.beta);
  out += "\npower_alone ";
  append_double(out, p.power_alone);
  out += "\nalone";
  for (double v : {p.alone.l1rpi, p.alone.l2rpi, p.alone.brpi, p.alone.fppi,
                   p.alone.l2mpr, p.alone.spi}) {
    out += ' ';
    append_double(out, v);
  }
  out += '\n';
  std::vector<double> hist{p.features.histogram.tail_mass()};
  for (std::uint32_t d = 1; d <= p.features.histogram.max_depth(); ++d)
    hist.push_back(p.features.histogram.probability(d));
  append_doubles(out, "hist", hist);
  append_doubles(out, "mpa_curve", p.mpa_at_ways);
  append_doubles(out, "spi_curve", p.spi_at_ways);
  out += "end\n";
}

void append_power_model(std::string& out, const PowerModel& model) {
  out.reserve(out.size() + 64 + 24 * model.coefficients().size());
  out += "power_model v1 ";
  append_u64(out, model.cores());
  out += ' ';
  append_double(out, model.idle_total());
  for (double c : model.coefficients()) {
    out += ' ';
    append_double(out, c);
  }
  out += '\n';
}

const ProcessProfile* ModelStore::find(const std::string& name) const {
  for (const ProcessProfile& p : profiles)
    if (p.name == name) return &p;
  return nullptr;
}

ModelStore read_store(std::istream& is) {
  ModelStore store;
  std::string line;
  std::optional<ProcessProfile> current;
  bool have_hist = false;
  std::size_t lineno = 0;

  // Every rejection names the offending line: a corrupted store (bit
  // rot, truncated copy, hand edit) should point at itself, not fail
  // later inside a fill-curve integral.
  auto fail = [&](const std::string& why) -> void {
    throw Error("store line " + std::to_string(lineno) + ": " + why);
  };
  auto require = [&](bool ok, const std::string& why) {
    if (!ok) fail(why);
  };
  auto require_open = [&](const std::string& key) {
    require(current.has_value(), "'" + key + "' outside a profile");
  };
  auto finite = [&](std::span<const double> values, const std::string& key) {
    for (double v : values)
      require(std::isfinite(v), key + " contains a non-finite value");
  };
  auto parse_list = [&](std::istringstream& ls, const std::string& key) {
    try {
      return parse_doubles(ls, key);
    } catch (const Error& e) {
      fail(e.what());
      return std::vector<double>{};  // unreachable; fail() throws
    }
  };

  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;

    if (key == "profile") {
      require(!current, "nested profile record");
      std::string version, name;
      ls >> version >> name;
      require(version == "v1" && !name.empty(),
              "bad profile header: " + line);
      current.emplace();
      current->name = name;
      current->features.name = name;
      have_hist = false;
    } else if (key == "revision") {
      require_open(key);
      std::uint64_t v = 0;
      require(static_cast<bool>(ls >> v), "bad value for revision");
      current->revision = v;
    } else if (key == "fit_frequency") {
      require_open(key);
      double v = 0.0;
      require(static_cast<bool>(ls >> v), "bad value for fit_frequency");
      require(std::isfinite(v) && v > 0.0,
              "fit_frequency must be positive and finite");
      current->features.fit_frequency = v;
    } else if (key == "api" || key == "alpha" || key == "beta" ||
               key == "power_alone") {
      require_open(key);
      double v;
      require(static_cast<bool>(ls >> v), "bad value for " + key);
      require(std::isfinite(v), key + " must be finite");
      if (key == "api") {
        require(v > 0.0, "api must be positive");
        current->features.api = v;
      } else if (key == "alpha") {
        require(v >= 0.0, "alpha must be nonnegative");
        current->features.alpha = v;
      } else if (key == "beta") {
        require(v > 0.0, "beta must be positive");
        current->features.beta = v;
      } else {
        require(v >= 0.0, "power_alone must be nonnegative");
        current->power_alone = v;
      }
    } else if (key == "alone") {
      require_open(key);
      const std::vector<double> v = parse_list(ls, "alone");
      require(v.size() == 6, "alone expects 6 values");
      finite(v, "alone");
      for (double x : v) require(x >= 0.0, "alone rates must be nonnegative");
      current->alone.l1rpi = v[0];
      current->alone.l2rpi = v[1];
      current->alone.brpi = v[2];
      current->alone.fppi = v[3];
      current->alone.l2mpr = v[4];
      current->alone.spi = v[5];
    } else if (key == "hist") {
      require_open(key);
      std::vector<double> v = parse_list(ls, "hist");
      require(v.size() >= 2, "hist expects tail + at least one pmf bin");
      finite(v, "hist");
      for (double x : v)
        require(x >= 0.0, "hist probabilities must be nonnegative");
      const double tail = v.front();
      v.erase(v.begin());
      try {
        // from_serialized keeps the stored bins bit-exact (no
        // renormalization), so read_store ∘ write_store is the identity
        // crash recovery's replay-equivalence guarantee needs.
        current->features.histogram =
            ReuseHistogram::from_serialized(std::move(v), tail);
      } catch (const Error& e) {
        fail(std::string("bad histogram: ") + e.what());
      }
      have_hist = true;
    } else if (key == "mpa_curve") {
      require_open(key);
      current->mpa_at_ways = parse_list(ls, "mpa_curve");
      finite(current->mpa_at_ways, "mpa_curve");
      for (double x : current->mpa_at_ways)
        require(x >= 0.0 && x <= 1.0, "mpa_curve values must be in [0, 1]");
    } else if (key == "spi_curve") {
      require_open(key);
      current->spi_at_ways = parse_list(ls, "spi_curve");
      finite(current->spi_at_ways, "spi_curve");
      for (double x : current->spi_at_ways)
        require(x > 0.0, "spi_curve values must be positive");
    } else if (key == "end") {
      require_open(key);
      require(have_hist, "profile missing histogram: " + current->name);
      try {
        current->features.validate();
      } catch (const Error& e) {
        fail(e.what());
      }
      store.profiles.push_back(std::move(*current));
      current.reset();
    } else if (key == "power_model") {
      std::string version;
      ls >> version;
      require(version == "v1", "bad power_model header: " + line);
      const std::vector<double> v = parse_list(ls, "power_model");
      require(v.size() == 7, "power_model expects cores idle c1..c5");
      finite(v, "power_model");
      const auto cores = static_cast<std::uint32_t>(v[0]);
      require(static_cast<double>(cores) == v[0] && cores > 0,
              "bad core count");
      std::array<double, 5> c{};
      for (int j = 0; j < 5; ++j) c[j] = v[2 + j];
      store.power_model.emplace(v[1], c, cores);
    } else {
      fail("unknown record key: " + key);
    }
  }
  REPRO_ENSURE(!current, "unterminated profile record");
  return store;
}

void save_store(const std::string& path, const ModelStore& store) {
  std::ofstream os(path);
  REPRO_ENSURE(os.good(), "cannot open for writing: " + path);
  const std::string text = write_store_text(store);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
  REPRO_ENSURE(os.good(), "write failed: " + path);
}

std::optional<ModelStore> load_store(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) return std::nullopt;
  return read_store(is);
}

std::string write_store_text(const ModelStore& store) {
  std::string out = "# cmp_models store — profiles and power model\n";
  append_store_body(out, store);
  return out;
}

std::string write_checkpoint_text(const CheckpointMeta& meta,
                                  const ModelStore& store) {
  std::string out = "# cmp_models checkpoint\ncheckpoint v1 epoch ";
  append_u64(out, meta.epoch);
  out += " power_revision ";
  append_u64(out, meta.power_revision);
  out += " journal_next ";
  append_u64(out, meta.journal_next);
  out += '\n';
  append_store_body(out, store);
  char footer[32];
  std::snprintf(footer, sizeof footer, "checksum crc32c %08x\n",
                static_cast<unsigned>(common::crc32c(out)));
  out += footer;
  return out;
}

Checkpoint read_checkpoint(std::string_view text) {
  // Footer first: until the whole-file checksum verifies, no byte of
  // the checkpoint is trusted — not even the meta line.
  REPRO_ENSURE(!text.empty() && text.back() == '\n',
               "checkpoint is empty or missing final newline");
  const auto footer_start = text.find_last_of('\n', text.size() - 2);
  const std::string_view footer =
      footer_start == std::string_view::npos
          ? text
          : text.substr(footer_start + 1);
  const std::string_view body =
      footer_start == std::string_view::npos
          ? std::string_view{}
          : text.substr(0, footer_start + 1);
  std::istringstream fs{std::string(footer)};
  std::string key, algo, hex;
  fs >> key >> algo >> hex;
  REPRO_ENSURE(key == "checksum" && algo == "crc32c" && hex.size() == 8,
               "checkpoint missing checksum footer");
  std::uint32_t stored = 0;
  {
    std::istringstream hs(hex);
    hs >> std::hex >> stored;
    REPRO_ENSURE(!hs.fail(), "checkpoint checksum footer is not hex");
  }
  const std::uint32_t computed = common::crc32c(body);
  if (computed != stored) {
    std::ostringstream why;
    why << "checkpoint checksum mismatch: stored " << std::hex
        << std::setw(8) << std::setfill('0') << stored << ", computed "
        << std::setw(8) << std::setfill('0') << computed;
    throw Error(std::move(why).str());
  }

  // Meta line: the first non-comment, non-blank line of the body.
  Checkpoint checkpoint;
  std::istringstream bs{std::string(body)};
  std::string line;
  bool have_meta = false;
  std::ostringstream rest;
  while (std::getline(bs, line)) {
    if (!have_meta) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ls(line);
      std::string head, version, k_epoch, k_power, k_journal;
      CheckpointMeta meta;
      ls >> head >> version >> k_epoch >> meta.epoch >> k_power >>
          meta.power_revision >> k_journal >> meta.journal_next;
      REPRO_ENSURE(!ls.fail() && head == "checkpoint" && version == "v1" &&
                       k_epoch == "epoch" && k_power == "power_revision" &&
                       k_journal == "journal_next",
                   "checkpoint bad meta line: " + line);
      checkpoint.meta = meta;
      have_meta = true;
    } else {
      rest << line << '\n';
    }
  }
  REPRO_ENSURE(have_meta, "checkpoint missing meta line");
  std::istringstream store_stream{std::move(rest).str()};
  checkpoint.store = read_store(store_stream);
  return checkpoint;
}

}  // namespace repro::core

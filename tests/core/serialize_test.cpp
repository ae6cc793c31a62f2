#include "repro/core/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "repro/common/ensure.hpp"

namespace repro::core {
namespace {

ProcessProfile sample_profile(const std::string& name) {
  ProcessProfile p;
  p.name = name;
  p.features.name = name;
  p.features.histogram = ReuseHistogram({0.5, 0.25, 0.1}, 0.15);
  p.features.api = 0.012;
  p.features.alpha = 1.1e-9;
  p.features.beta = 4.7e-10;
  p.power_alone = 31.25;
  p.alone.l1rpi = 0.32;
  p.alone.l2rpi = 0.012;
  p.alone.brpi = 0.12;
  p.alone.fppi = 0.10;
  p.alone.l2mpr = 0.17;
  p.alone.spi = 5.0e-10;
  p.mpa_at_ways = {0.6, 0.4, 0.25, 0.15};
  p.spi_at_ways = {1.1e-9, 9.0e-10, 7.4e-10, 6.3e-10};
  return p;
}

/// One profile record, as a stream read_store parses.
std::stringstream record_stream(const ProcessProfile& p) {
  std::string text;
  append_profile(text, p);
  return std::stringstream(text);
}

TEST(Serialize, ProfileRoundTripsExactly) {
  const ProcessProfile original = sample_profile("vpr");
  std::stringstream ss = record_stream(original);
  const ModelStore store = read_store(ss);
  ASSERT_EQ(store.profiles.size(), 1u);
  const ProcessProfile& p = store.profiles[0];
  EXPECT_EQ(p.name, "vpr");
  EXPECT_DOUBLE_EQ(p.features.api, original.features.api);
  EXPECT_DOUBLE_EQ(p.features.alpha, original.features.alpha);
  EXPECT_DOUBLE_EQ(p.features.beta, original.features.beta);
  EXPECT_DOUBLE_EQ(p.power_alone, original.power_alone);
  EXPECT_DOUBLE_EQ(p.alone.l2mpr, original.alone.l2mpr);
  EXPECT_DOUBLE_EQ(p.alone.spi, original.alone.spi);
  for (std::uint32_t d = 1; d <= 3; ++d)
    EXPECT_DOUBLE_EQ(p.features.histogram.probability(d),
                     original.features.histogram.probability(d));
  EXPECT_DOUBLE_EQ(p.features.histogram.tail_mass(),
                   original.features.histogram.tail_mass());
  ASSERT_EQ(p.mpa_at_ways.size(), 4u);
  EXPECT_DOUBLE_EQ(p.mpa_at_ways[2], 0.25);
  EXPECT_DOUBLE_EQ(p.spi_at_ways[3], 6.3e-10);
}

TEST(Serialize, FitFrequencyRoundTripsExactly) {
  ProcessProfile original = sample_profile("art");
  const double fit = 24e8;
  original.features.fit_frequency = fit;
  std::stringstream ss = record_stream(original);
  const ModelStore store = read_store(ss);
  ASSERT_EQ(store.profiles.size(), 1u);
  EXPECT_DOUBLE_EQ(store.profiles[0].features.fit_frequency, fit);
}

TEST(Serialize, LegacyStoreWithoutFitFrequencyStillLoads) {
  // A pre-DVFS store has no fit_frequency lines at all: it must load
  // cleanly and come back with the 0 "clock unknown" sentinel — and a
  // legacy profile must serialize byte-identically to the seed era
  // (no fit_frequency line emitted for the sentinel).
  ProcessProfile legacy = sample_profile("vpr");
  std::stringstream ss = record_stream(legacy);
  EXPECT_EQ(ss.str().find("fit_frequency"), std::string::npos);
  const ModelStore store = read_store(ss);
  ASSERT_EQ(store.profiles.size(), 1u);
  EXPECT_DOUBLE_EQ(store.profiles[0].features.fit_frequency, 0.0);
}

TEST(Serialize, RejectsNonPositiveFitFrequency) {
  ProcessProfile p = sample_profile("gzip");
  std::string text;
  append_profile(text, p);
  text.insert(text.find("api "), "fit_frequency -2e9\n");
  std::stringstream bad(text);
  EXPECT_THROW(read_store(bad), Error);
}

TEST(Serialize, MultipleProfilesAndModelRoundTrip) {
  ModelStore original;
  original.profiles = {sample_profile("gzip"), sample_profile("mcf")};
  original.power_model.emplace(
      45.0, std::array<double, 5>{6e-9, 2e-8, -3e-7, 4e-9, 5e-9}, 4);
  std::stringstream ss(write_store_text(original));

  const ModelStore store = read_store(ss);
  EXPECT_EQ(store.profiles.size(), 2u);
  EXPECT_NE(store.find("gzip"), nullptr);
  EXPECT_NE(store.find("mcf"), nullptr);
  EXPECT_EQ(store.find("nope"), nullptr);
  ASSERT_TRUE(store.power_model.has_value());
  EXPECT_DOUBLE_EQ(store.power_model->idle_total(), 45.0);
  EXPECT_EQ(store.power_model->cores(), 4u);
  EXPECT_DOUBLE_EQ(store.power_model->coefficients()[2], -3e-7);
}

TEST(Serialize, VersionedRevisionsRoundTrip) {
  // The on-line pipeline persists successive revisions of the same
  // process; each must survive a round trip with its version intact.
  ModelStore original;
  for (std::uint64_t rev : {0ull, 1ull, 7ull, 123456789ull}) {
    ProcessProfile p = sample_profile("phased_rev" + std::to_string(rev));
    p.revision = rev;
    original.profiles.push_back(std::move(p));
  }
  std::stringstream ss(write_store_text(original));
  const ModelStore store = read_store(ss);
  ASSERT_EQ(store.profiles.size(), original.profiles.size());
  for (std::size_t i = 0; i < original.profiles.size(); ++i)
    EXPECT_EQ(store.profiles[i].revision, original.profiles[i].revision);
}

TEST(Serialize, MissingRevisionReadsAsBatchProfile) {
  // Seed-era stores predate the revision key; they parse as rev 0.
  std::stringstream ss = record_stream(sample_profile("legacy"));
  EXPECT_EQ(ss.str().find("revision"), std::string::npos)
      << "revision 0 must not be written (byte-compat with old stores)";
  const ModelStore store = read_store(ss);
  ASSERT_EQ(store.profiles.size(), 1u);
  EXPECT_EQ(store.profiles[0].revision, 0u);
}

TEST(Serialize, IgnoresCommentsAndBlankLines) {
  std::string text = "# comment\n\n";
  append_profile(text, sample_profile("art"));
  text += "\n# trailing comment\n";
  std::stringstream ss(text);
  const ModelStore store = read_store(ss);
  EXPECT_EQ(store.profiles.size(), 1u);
}

TEST(Serialize, RejectsMalformedInput) {
  {
    std::stringstream ss("api 0.5\n");  // field outside profile
    EXPECT_THROW(read_store(ss), Error);
  }
  {
    std::stringstream ss("profile v1 x\napi 0.1\n");  // unterminated
    EXPECT_THROW(read_store(ss), Error);
  }
  {
    std::stringstream ss("profile v2 x\nend\n");  // bad version
    EXPECT_THROW(read_store(ss), Error);
  }
  {
    std::stringstream ss("wibble 1 2 3\n");
    EXPECT_THROW(read_store(ss), Error);
  }
  {
    std::stringstream ss("power_model v1 4 45.0 1 2 3\n");  // too few
    EXPECT_THROW(read_store(ss), Error);
  }
}

TEST(Serialize, RejectsProfileWithoutHistogram) {
  std::stringstream ss(
      "profile v1 x\napi 0.1\nalpha 1e-9\nbeta 1e-10\nend\n");
  EXPECT_THROW(read_store(ss), Error);
}

TEST(Serialize, FileRoundTrip) {
  ModelStore original;
  original.profiles = {sample_profile("twolf")};
  const std::string path = ::testing::TempDir() + "/store_test.txt";
  save_store(path, original);
  const auto loaded = load_store(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->profiles.size(), 1u);
  EXPECT_EQ(loaded->profiles[0].name, "twolf");
}

TEST(Serialize, LoadMissingFileReturnsNullopt) {
  EXPECT_FALSE(load_store("/nonexistent/path/store.txt").has_value());
}

TEST(Serialize, RejectsWhitespaceInProfileName) {
  ProcessProfile p = sample_profile("bad name");
  std::string text;
  EXPECT_THROW(append_profile(text, p), Error);
}

// --- Corrupt-file corpus (ISSUE 3): every corruption class a store can
// plausibly suffer must be rejected with a line-numbered message, never
// loaded into the engine to fail later inside a fill-curve integral. ---

/// A known-good store text with fixed line numbers (1-based).
std::string valid_store_text() {
  return
      "profile v1 x\n"                                // 1
      "api 0.012\n"                                   // 2
      "alpha 1.1e-09\n"                               // 3
      "beta 4.7e-10\n"                                // 4
      "power_alone 31.25\n"                           // 5
      "alone 0.32 0.012 0.12 0.10 0.17 5e-10\n"       // 6
      "hist 0.15 0.5 0.25 0.1\n"                      // 7
      "mpa_curve 0.6 0.4 0.25 0.15\n"                 // 8
      "spi_curve 1.1e-09 9e-10 7.4e-10 6.3e-10\n"     // 9
      "end\n";                                        // 10
}

/// The valid text with line `lineno` (1-based) replaced.
std::string corrupt(std::size_t lineno, const std::string& replacement) {
  std::istringstream in(valid_store_text());
  std::ostringstream out;
  std::string line;
  for (std::size_t n = 1; std::getline(in, line); ++n)
    out << (n == lineno ? replacement : line) << '\n';
  return out.str();
}

TEST(Serialize, CheckpointRoundTripsExactly) {
  ModelStore store;
  store.profiles = {sample_profile("gzip"), sample_profile("mcf")};
  store.power_model.emplace(
      45.0, std::array<double, 5>{6e-9, 2e-8, -3e-7, 4e-9, 5e-9}, 4);
  CheckpointMeta meta;
  meta.epoch = 17;
  meta.power_revision = 3;
  meta.journal_next = 42;

  const std::string text = write_checkpoint_text(meta, store);
  const Checkpoint parsed = read_checkpoint(text);
  EXPECT_EQ(parsed.meta.epoch, 17u);
  EXPECT_EQ(parsed.meta.power_revision, 3u);
  EXPECT_EQ(parsed.meta.journal_next, 42u);
  ASSERT_EQ(parsed.store.profiles.size(), 2u);
  EXPECT_EQ(parsed.store.profiles[0].name, "gzip");
  EXPECT_EQ(parsed.store.profiles[1].name, "mcf");
  ASSERT_TRUE(parsed.store.power_model.has_value());
  EXPECT_DOUBLE_EQ(parsed.store.power_model->idle_core(), 45.0 / 4.0);

  // Serialization is a fixed point: re-rendering the parsed checkpoint
  // reproduces the original bytes (the recovery byte-identity lever).
  EXPECT_EQ(write_checkpoint_text(parsed.meta, parsed.store), text);
}

TEST(Serialize, CheckpointChecksumMismatchIsRejected) {
  ModelStore store;
  store.profiles = {sample_profile("vpr")};
  CheckpointMeta meta;
  meta.epoch = 2;
  std::string text = write_checkpoint_text(meta, store);

  // Flip one body byte; the footer must catch it before read_store
  // sees a single field.
  std::string corrupt = text;
  corrupt[text.size() / 2] ^= 0x01;
  try {
    read_checkpoint(corrupt);
    FAIL() << "corrupt checkpoint parsed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint checksum mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(Serialize, CheckpointMalformedFramingIsRejected) {
  ModelStore store;
  store.profiles = {sample_profile("vpr")};
  CheckpointMeta meta;
  const std::string text = write_checkpoint_text(meta, store);

  const auto expect_rejected = [](const std::string& bad,
                                  const std::string& needle) {
    try {
      read_checkpoint(bad);
      FAIL() << "malformed checkpoint parsed (wanted: " << needle << ")";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  // Truncation mid-footer, a missing footer line, a meta line with the
  // wrong shape, and no meta line at all.
  expect_rejected(text.substr(0, text.size() - 4), "checkpoint");
  expect_rejected("# cmp_models checkpoint\nprofile p\nend\n",
                  "checkpoint missing checksum footer");
  expect_rejected("", "checkpoint is empty");
  const std::size_t meta_pos = text.find("checkpoint v1");
  std::string bad_meta = text;
  bad_meta.replace(meta_pos, 13, "checkpoint v9");
  expect_rejected(bad_meta, "checkpoint");
}

TEST(Serialize, CorpusBaselineParses) {
  std::istringstream ss(valid_store_text());
  const ModelStore store = read_store(ss);
  ASSERT_EQ(store.profiles.size(), 1u);
  // ...and what it parsed round-trips.
  std::stringstream again = record_stream(store.profiles[0]);
  EXPECT_EQ(read_store(again).profiles.size(), 1u);
}

TEST(Serialize, CorruptStoreCorpusIsRejectedWithLineNumbers) {
  struct Case {
    const char* label;
    std::size_t lineno;
    const char* replacement;
  };
  const Case corpus[] = {
      {"non-numeric api", 2, "api oops"},
      {"negative api", 2, "api -0.5"},
      {"infinite api", 2, "api inf"},
      {"negative alpha", 3, "alpha -1e-9"},
      {"zero beta", 4, "beta 0"},
      {"NaN beta", 4, "beta nan"},
      {"negative power", 5, "power_alone -2"},
      {"truncated alone", 6, "alone 0.32 0.012 0.12"},
      {"negative alone rate", 6, "alone 0.32 -0.012 0.12 0.10 0.17 5e-10"},
      {"trailing garbage", 6, "alone 0.32 0.012 0.12 0.10 0.17 5e-10 huh"},
      {"empty histogram", 7, "hist 0.15"},
      {"negative hist bin", 7, "hist 0.15 -0.5 0.25 0.1"},
      {"hist mass not 1", 7, "hist 0.15 0.5"},
      {"MPA above 1", 8, "mpa_curve 0.6 1.4 0.25 0.15"},
      {"negative MPA", 8, "mpa_curve 0.6 -0.4 0.25 0.15"},
      {"non-positive SPI", 9, "spi_curve 0 9e-10 7.4e-10 6.3e-10"},
      {"unknown key", 9, "spl_curve 1.1e-09 9e-10 7.4e-10 6.3e-10"},
      {"missing api at end", 2, "# api line lost"},  // reported at 'end'
  };
  for (const Case& c : corpus) {
    std::istringstream ss(corrupt(c.lineno, c.replacement));
    try {
      read_store(ss);
      FAIL() << c.label << " was accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      // The commented-out-api case fails where validate() runs: line 10.
      const std::size_t expect_line =
          std::string(c.label) == "missing api at end" ? 10 : c.lineno;
      const std::string tag =
          "store line " + std::to_string(expect_line) + ":";
      EXPECT_NE(what.find(tag), std::string::npos)
          << c.label << ": message lacks '" << tag << "': " << what;
    }
  }
}

TEST(Serialize, CorruptPowerModelIsRejectedWithLineNumbers) {
  for (const char* bad :
       {"power_model v1 4 45.0 1 2 3",        // too few coefficients
        "power_model v2 4 45.0 1 2 3 4 5",    // bad version
        "power_model v1 4 inf 1 2 3 4 5",     // non-finite idle
        "power_model v1 4.5 45.0 1 2 3 4 5",  // fractional core count
        "power_model v1 4 45.0 1 2 x 4 5"}) { // non-numeric coefficient
    std::istringstream ss(valid_store_text() + bad + "\n");
    try {
      read_store(ss);
      FAIL() << "accepted: " << bad;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("store line 11:"),
                std::string::npos)
          << bad << " → " << e.what();
    }
  }
}

}  // namespace
}  // namespace repro::core

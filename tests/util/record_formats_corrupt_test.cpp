// Per-format corruption sweeps of the three record logs (docs/ROBUSTNESS.md
// "Record logs"): a small CPPL pattern store, CPPJ populate journal and CPSJ
// ledger journal are truncated at every length and have one bit flipped at
// every byte, and each format must apply its own policy on top of the shared
// reader that tests/util/record_log_test.cpp sweeps:
//
//   * CPPL store open recovers a torn tail (and truncates it away) and throws
//     "checksum mismatch ... at byte N" on damage with data behind it;
//   * a CPPJ journal resumes its intact rounds after a torn tail and starts
//     fresh on anything else;
//   * CPSJ RequestLedger::load drops a torn tail and returns ok=false, naming
//     the byte offset, on damage with data behind it.
//
// Runs under ASan/UBSan in corruption_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/populate_journal.h"
#include "pattlib/pattern_store.h"
#include "serve/ledger.h"
#include "util/fs.h"

namespace cp {
namespace {

constexpr std::uint64_t kMagicBytes = 8;  // every record log's file magic

std::string temp_path(const char* name) { return ::testing::TempDir() + "/" + name; }

void overwrite(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

std::uint64_t file_size(const std::string& path) { return std::filesystem::file_size(path); }

/// Frame boundaries of a log: ends[0] is the end of the magic, ends[i] the
/// end of frame i.
using Ends = std::vector<std::uint64_t>;

/// Frames (after the magic) wholly inside the first `len` bytes.
std::size_t whole_frames(const Ends& ends, std::uint64_t len) {
  std::size_t k = 0;
  while (k + 1 < ends.size() && ends[k + 1] <= len) ++k;
  return k;
}

/// Where a flipped byte sits, which decides what the shared reader reports.
/// Outside the length field a frame keeps its extent, so its CRC fails in
/// place: a torn tail when it is the last frame, corruption otherwise. A
/// flipped length field may end the frame past EOF (torn) or not (corrupt).
enum class Flip { kMagic, kLengthField, kLastFrame, kMidFrame };

struct FlipSite {
  Flip where;
  std::size_t frame = 0;    // ends[frame - 1] <= pos < ends[frame]
  std::uint64_t start = 0;  // ends[frame - 1]
};

FlipSite classify(const Ends& ends, std::uint64_t pos) {
  if (pos < ends[0]) return {Flip::kMagic};
  FlipSite site;
  site.frame = 1;
  while (ends[site.frame] <= pos) ++site.frame;
  site.start = ends[site.frame - 1];
  if (pos >= site.start + 1 && pos < site.start + 5) {
    site.where = Flip::kLengthField;
  } else {
    site.where = site.frame + 1 == ends.size() ? Flip::kLastFrame : Flip::kMidFrame;
  }
  return site;
}

std::string flipped(std::string data, std::size_t pos) {
  data[pos] = static_cast<char>(data[pos] ^ 0x20);
  return data;
}

bool names_offset(const std::string& error, std::uint64_t offset) {
  return error.find("at byte " + std::to_string(offset)) != std::string::npos;
}

// -- CPPL pattern store -------------------------------------------------------

squish::SquishPattern bar_pattern(int bars) {
  std::vector<geometry::Rect> rects;
  geometry::Coord y = 0;
  for (int i = 0; i < bars; ++i) {
    rects.push_back({0, y, 400, y + 100});
    y += 160;
  }
  return squish::squish(rects, {0, 0, 400, y});
}

struct StoreFixture {
  std::string bytes;
  Ends ends;
  std::vector<int> patterns_in;  // patterns_in[k] = pattern records among frames 1..k
  std::vector<squish::SquishPattern> patterns;
};

/// Two patterns, a DRC amendment of the first, a third pattern.
StoreFixture write_store(const std::string& path) {
  std::remove(path.c_str());
  StoreFixture f;
  f.patterns = {bar_pattern(1), bar_pattern(2), bar_pattern(3)};
  pattlib::PatternStore store(path);
  f.ends.push_back(file_size(path));
  f.patterns_in.push_back(0);
  auto frame = [&](bool pattern) {
    f.ends.push_back(file_size(path));
    f.patterns_in.push_back(f.patterns_in.back() + (pattern ? 1 : 0));
  };
  store.add(f.patterns[0], {});
  frame(true);
  store.add(f.patterns[1], {});
  frame(true);
  store.set_drc(0, pattlib::DrcStatus::kViolating);
  frame(false);
  store.add(f.patterns[2], {});
  frame(true);
  store.flush();
  f.bytes = util::read_file(path);
  return f;
}

/// The store opened at `path` holds exactly the first `count` fixture patterns.
void expect_store_prefix(const pattlib::PatternStore& store, const StoreFixture& f, int count,
                         const std::string& what) {
  ASSERT_EQ(store.size(), static_cast<std::size_t>(count)) << what;
  for (int i = 0; i < count; ++i) {
    EXPECT_TRUE(store.at(static_cast<std::uint64_t>(i)).pattern.topology ==
                f.patterns[static_cast<std::size_t>(i)].topology)
        << what << " pattern " << i;
  }
}

TEST(RecordFormatsCorruptTest, StoreTruncatedAnywhereRecoversItsWholeRecords) {
  const std::string path = temp_path("sweep_store_trunc.cppl");
  const StoreFixture f = write_store(path);
  for (std::uint64_t len = 0; len < f.bytes.size(); ++len) {
    const std::string what = "truncate to " + std::to_string(len);
    overwrite(path, f.bytes.substr(0, len));
    const std::size_t k = whole_frames(f.ends, len);
    const std::uint64_t valid_end = len < kMagicBytes ? 0 : f.ends[k];
    {
      std::unique_ptr<pattlib::PatternStore> store;
      ASSERT_NO_THROW(store = std::make_unique<pattlib::PatternStore>(path)) << what;
      expect_store_prefix(*store, f, f.patterns_in[k], what);
      EXPECT_EQ(store->stats().recovered_bytes, len - valid_end) << what;
    }
    // The torn tail is truncated away (a torn magic is rewritten).
    EXPECT_EQ(util::read_file(path), f.bytes.substr(0, std::max(valid_end, kMagicBytes))) << what;
  }
  std::remove(path.c_str());
}

TEST(RecordFormatsCorruptTest, StoreBitFlipThrowsAtItsOffsetOrIsATornTail) {
  const std::string path = temp_path("sweep_store_flip.cppl");
  const StoreFixture f = write_store(path);
  for (std::size_t pos = 0; pos < f.bytes.size(); ++pos) {
    const std::string what = "flip at " + std::to_string(pos);
    overwrite(path, flipped(f.bytes, pos));
    const FlipSite site = classify(f.ends, pos);
    if (site.where == Flip::kMagic) {
      EXPECT_THROW(pattlib::PatternStore store(path), std::runtime_error) << what;
      continue;
    }
    std::string error;
    try {
      pattlib::PatternStore store(path);
      expect_store_prefix(store, f, f.patterns_in[site.frame - 1], what);
      EXPECT_EQ(store.stats().recovered_bytes, f.bytes.size() - site.start) << what;
    } catch (const std::runtime_error& e) {
      error = e.what();
    }
    if (site.where == Flip::kMidFrame || (site.where == Flip::kLengthField && !error.empty())) {
      EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << what << ": " << error;
      EXPECT_TRUE(names_offset(error, site.start)) << what << ": " << error;
    } else {
      EXPECT_EQ(error, "") << what;
    }
  }
  std::remove(path.c_str());
}

// -- CPPJ populate journal ----------------------------------------------------

constexpr int kRounds = 3;

core::PopulateJournal::Fingerprint journal_fingerprint() {
  core::PopulateJournal::Fingerprint fp;
  fp.seed = 11;
  fp.count = 7;
  fp.width_nm = 2048;
  fp.height_nm = 2048;
  return fp;
}

squish::SquishPattern round_pattern(int round) {
  squish::SquishPattern p;
  p.topology = squish::Topology(4, 5);
  p.topology.set(round % 4, round % 5, 1);
  p.dx.assign(5, 10 + round);
  p.dy.assign(4, 20 + round);
  return p;
}

/// ends[1] is the fingerprint header, ends[2 ..] one round each.
Ends write_journal(const std::string& path, std::string* bytes) {
  std::remove(path.c_str());
  Ends ends = {kMagicBytes};
  core::PopulateJournal journal(path);
  core::PopulateJournal::State state;
  EXPECT_FALSE(journal.open(journal_fingerprint(), &state));
  ends.push_back(file_size(path));
  std::vector<squish::SquishPattern> all;
  for (int r = 0; r < kRounds; ++r) {
    all.push_back(round_pattern(r));
    journal.append_round(10LL * (r + 1), r + 1, 100u * (r + 1), all, all.size() - 1);
    ends.push_back(file_size(path));
  }
  *bytes = util::read_file(path);
  return ends;
}

/// What opening a journal left behind: the rounds it resumed (0 = started
/// over) and the file contents after open.
struct JournalOpen {
  int rounds = 0;
  std::string file;
  bool operator==(const JournalOpen&) const = default;
};

JournalOpen open_journal(const std::string& path) {
  core::PopulateJournal journal(path);
  core::PopulateJournal::State state;
  JournalOpen out;
  if (journal.open(journal_fingerprint(), &state)) {
    out.rounds = state.rounds;
    // A resumed state is exactly the first `rounds` rounds of the fixture.
    EXPECT_EQ(state.attempts, 10LL * state.rounds);
    EXPECT_EQ(state.next_stream, 100u * static_cast<std::uint64_t>(state.rounds));
    EXPECT_EQ(state.patterns.size(), static_cast<std::size_t>(state.rounds));
    for (std::size_t r = 0; r < state.patterns.size(); ++r) {
      EXPECT_TRUE(state.patterns[r].topology == round_pattern(static_cast<int>(r)).topology) << r;
    }
  }
  out.file = util::read_file(path);
  return out;
}

TEST(RecordFormatsCorruptTest, JournalTruncatedAnywhereResumesItsWholeRounds) {
  const std::string path = temp_path("sweep_journal_trunc.cppj");
  std::string original;
  const Ends ends = write_journal(path, &original);
  for (std::uint64_t len = 0; len < original.size(); ++len) {
    overwrite(path, original.substr(0, len));
    const std::size_t k = whole_frames(ends, len);
    // Without an intact header the journal starts fresh: the same header again.
    const JournalOpen want{k >= 2 ? static_cast<int>(k) - 1 : 0,
                           original.substr(0, ends[std::max<std::size_t>(k, 1)])};
    EXPECT_TRUE(open_journal(path) == want) << "truncate to " << len;
  }
  std::remove(path.c_str());
}

TEST(RecordFormatsCorruptTest, JournalBitFlipStartsFreshUnlessATornTail) {
  const std::string path = temp_path("sweep_journal_flip.cppj");
  std::string original;
  const Ends ends = write_journal(path, &original);
  const JournalOpen fresh{0, original.substr(0, ends[1])};
  for (std::size_t pos = 0; pos < original.size(); ++pos) {
    overwrite(path, flipped(original, pos));
    const FlipSite site = classify(ends, pos);
    const JournalOpen got = open_journal(path);
    if (site.frame < 2) {  // the magic or the fingerprint header
      EXPECT_TRUE(got == fresh) << "flip at " << pos;
      continue;
    }
    const JournalOpen torn{static_cast<int>(site.frame) - 2,
                           original.substr(0, ends[site.frame - 1])};
    switch (site.where) {
      case Flip::kLastFrame: EXPECT_TRUE(got == torn) << "flip at " << pos; break;
      case Flip::kMidFrame: EXPECT_TRUE(got == fresh) << "flip at " << pos; break;
      default: EXPECT_TRUE(got == fresh || got == torn) << "flip at " << pos; break;
    }
  }
  std::remove(path.c_str());
}

// -- CPSJ ledger journal ------------------------------------------------------

struct LedgerEvent {
  bool accept;
  const char* id;
};

// seq 1 = "a", 2 = "b", 3 = "c".
const std::vector<LedgerEvent>& ledger_events() {
  static const std::vector<LedgerEvent> events = {
      {true, "a"}, {true, "b"}, {false, "a"}, {true, "c"}, {false, "c"}};
  return events;
}

Ends write_ledger(const std::string& path, std::string* bytes) {
  std::remove(path.c_str());
  Ends ends;
  serve::RequestLedger ledger(path);
  ends.push_back(file_size(path));
  std::uint64_t seq_a = 0, seq_c = 0;
  for (const LedgerEvent& e : ledger_events()) {
    if (e.accept) {
      const std::uint64_t seq = ledger.accept(e.id, 0xfeed);
      if (std::string(e.id) == "a") seq_a = seq;
      if (std::string(e.id) == "c") seq_c = seq;
    } else {
      ledger.complete(std::string(e.id) == "a" ? seq_a : seq_c, "ok");
    }
    ends.push_back(file_size(path));
  }
  ledger.flush();
  *bytes = util::read_file(path);
  return ends;
}

/// `load` delivered exactly the first `events` ledger events.
void expect_ledger_prefix(const serve::RequestLedger::Recovered& got, std::size_t events,
                          const std::string& what) {
  long long accepted = 0, completed = 0;
  std::vector<std::string> open;
  for (std::size_t i = 0; i < events; ++i) {
    const LedgerEvent& e = ledger_events()[i];
    if (e.accept) {
      ++accepted;
      open.push_back(e.id);
    } else {
      ++completed;
      open.erase(std::find(open.begin(), open.end(), e.id));
    }
  }
  EXPECT_EQ(got.accepted, accepted) << what;
  EXPECT_EQ(got.completed, completed) << what;
  std::vector<std::string> unfinished = got.unfinished_ids;
  std::sort(unfinished.begin(), unfinished.end());
  EXPECT_EQ(unfinished, open) << what;
}

TEST(RecordFormatsCorruptTest, LedgerTruncatedAnywhereLoadsItsWholeRecords) {
  const std::string path = temp_path("sweep_ledger_trunc.cpsj");
  std::string original;
  const Ends ends = write_ledger(path, &original);
  for (std::uint64_t len = 0; len < original.size(); ++len) {
    const std::string what = "truncate to " + std::to_string(len);
    overwrite(path, original.substr(0, len));
    const serve::RequestLedger::Recovered got = serve::RequestLedger::load(path);
    if (len < kMagicBytes) {
      EXPECT_FALSE(got.ok) << what;
      EXPECT_FALSE(got.error.empty()) << what;
      continue;
    }
    const std::size_t k = whole_frames(ends, len);
    ASSERT_TRUE(got.ok) << what << ": " << got.error;
    EXPECT_EQ(got.torn_tail, len != ends[k]) << what;
    expect_ledger_prefix(got, k, what);
  }
  std::remove(path.c_str());
}

TEST(RecordFormatsCorruptTest, LedgerBitFlipIsNotOkAtItsOffsetOrATornTail) {
  const std::string path = temp_path("sweep_ledger_flip.cpsj");
  std::string original;
  const Ends ends = write_ledger(path, &original);
  for (std::size_t pos = 0; pos < original.size(); ++pos) {
    const std::string what = "flip at " + std::to_string(pos);
    overwrite(path, flipped(original, pos));
    const serve::RequestLedger::Recovered got = serve::RequestLedger::load(path);
    const FlipSite site = classify(ends, pos);
    if (site.where == Flip::kMagic) {
      EXPECT_FALSE(got.ok) << what;
      EXPECT_FALSE(got.error.empty()) << what;
      continue;
    }
    const bool corrupt = site.where == Flip::kMidFrame ||
                         (site.where == Flip::kLengthField && !got.ok);
    if (corrupt) {
      EXPECT_FALSE(got.ok) << what;
      EXPECT_TRUE(names_offset(got.error, site.start)) << what << ": " << got.error;
    } else {
      ASSERT_TRUE(got.ok) << what << ": " << got.error;
      EXPECT_TRUE(got.torn_tail) << what;
      expect_ledger_prefix(got, site.frame - 1, what);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cp

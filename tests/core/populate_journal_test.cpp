// Crash-safe populate journal (core/populate_journal.h, docs/ROBUSTNESS.md):
// a killed populate run restarted against its journal restores every
// completed round — regenerating zero already-accepted patterns — and the
// resumed library is bit-identical to an uninterrupted run.

#include "core/populate_journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/pattern_library.h"
#include "tests/agent/agent_fixture.h"
#include "util/fs.h"

namespace cp::core {
namespace {

class PopulateJournalTest : public agent::testing::AgentFixture {
 protected:
  static constexpr int kCount = 6;
  static constexpr std::uint64_t kSeed = 11;

  diffusion::SampleConfig sample_config() {
    diffusion::SampleConfig sc;
    sc.rows = kWindow;
    sc.cols = kWindow;
    sc.condition = 0;
    sc.sample_steps = 8;
    return sc;
  }

  PopulateStats populate(PatternLibrary& lib, PopulateJournal* journal,
                         std::uint64_t seed = kSeed) {
    return lib.populate(sampler_, legal0_, sample_config(), kBudgetNm, kBudgetNm, kCount, seed,
                        /*pool=*/nullptr, /*max_attempts=*/0, journal);
  }

  static void expect_same_patterns(const PatternLibrary& a, const PatternLibrary& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(a.at(i).topology == b.at(i).topology) << "pattern " << i;
      EXPECT_EQ(a.at(i).dx, b.at(i).dx) << "pattern " << i;
      EXPECT_EQ(a.at(i).dy, b.at(i).dy) << "pattern " << i;
    }
  }

  std::string temp_path(const char* name) { return ::testing::TempDir() + "/" + name; }
};

TEST_F(PopulateJournalTest, JournaledRunMatchesPlainRun) {
  PatternLibrary plain("s");
  const PopulateStats ref = populate(plain, nullptr);
  ASSERT_TRUE(ref.complete);

  const std::string path = temp_path("journal_match.cppj");
  std::remove(path.c_str());
  PopulateJournal journal(path);
  PatternLibrary lib("s");
  const PopulateStats stats = populate(lib, &journal);
  EXPECT_TRUE(stats.complete);
  EXPECT_EQ(stats.attempts, ref.attempts);
  expect_same_patterns(lib, plain);
  std::remove(path.c_str());
}

TEST_F(PopulateJournalTest, RestartAfterCompletionRegeneratesNothing) {
  const std::string path = temp_path("journal_restart.cppj");
  std::remove(path.c_str());
  PatternLibrary first("s");
  PopulateStats ref;
  {
    PopulateJournal journal(path);
    ref = populate(first, &journal);
    ASSERT_TRUE(ref.complete);
  }

  // "Restart": a fresh library and journal object against the same file.
  // Every round is already journaled, so the resumed run samples nothing —
  // identical attempt counters and a bit-identical library.
  PatternLibrary second("s");
  PopulateJournal journal(path);
  const PopulateStats stats = populate(second, &journal);
  EXPECT_TRUE(stats.complete);
  EXPECT_EQ(stats.attempts, ref.attempts);
  EXPECT_EQ(stats.rounds, ref.rounds);
  expect_same_patterns(second, first);
  std::remove(path.c_str());
}

TEST_F(PopulateJournalTest, KillMidRunResumesBitIdentically) {
  PatternLibrary plain("s");
  populate(plain, nullptr);

  const std::string path = temp_path("journal_kill.cppj");
  std::remove(path.c_str());
  {
    PopulateJournal journal(path);
    PatternLibrary full("s");
    ASSERT_TRUE(populate(full, &journal).complete);
  }

  // Emulate a crash mid-append: chop bytes off the end of the journal. The
  // torn final record is dropped on open; earlier rounds survive intact.
  std::string raw = util::read_file(path);
  ASSERT_GT(raw.size(), 10u);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(raw.data(), static_cast<std::streamsize>(raw.size() - 7));
  }

  PatternLibrary resumed("s");
  PopulateJournal journal(path);
  const PopulateStats stats = populate(resumed, &journal);
  EXPECT_TRUE(stats.complete);
  expect_same_patterns(resumed, plain);
  std::remove(path.c_str());
}

TEST_F(PopulateJournalTest, FingerprintMismatchStartsFresh) {
  const std::string path = temp_path("journal_fp.cppj");
  std::remove(path.c_str());
  {
    PopulateJournal journal(path);
    PatternLibrary lib("s");
    populate(lib, &journal);
  }

  // A different seed is a different run: the stale journal must be discarded
  // and the result must match a plain run at the new seed.
  PatternLibrary plain("s");
  populate(plain, nullptr, kSeed + 1);
  PatternLibrary lib("s");
  PopulateJournal journal(path);
  populate(lib, &journal, kSeed + 1);
  expect_same_patterns(lib, plain);
  std::remove(path.c_str());
}

TEST_F(PopulateJournalTest, GarbageJournalIsDiscardedNotFatal) {
  const std::string path = temp_path("journal_garbage.cppj");
  util::atomic_write_file(path, "not a journal at all");

  PatternLibrary plain("s");
  populate(plain, nullptr);
  PatternLibrary lib("s");
  PopulateJournal journal(path);
  const PopulateStats stats = populate(lib, &journal);
  EXPECT_TRUE(stats.complete);
  expect_same_patterns(lib, plain);
  std::remove(path.c_str());
}

// Direct journal tests: rounds appended through the API, no sampling.
class PopulateJournalFileTest : public ::testing::Test {
 protected:
  static squish::SquishPattern make_pattern(int rows, int cols, int marker) {
    squish::SquishPattern p;
    p.topology = squish::Topology(rows, cols);
    p.topology.set(marker % rows, marker % cols, 1);
    p.dx.assign(static_cast<std::size_t>(cols), 10 + marker);
    p.dy.assign(static_cast<std::size_t>(rows), 20 + marker);
    return p;
  }

  /// Appends rounds [first, last) of one pattern each to `journal`.
  static void append_rounds(PopulateJournal& journal, std::vector<squish::SquishPattern>& all,
                            int first, int last, int rows, int cols) {
    for (int r = first; r < last; ++r) {
      all.resize(static_cast<std::size_t>(r));
      all.push_back(make_pattern(rows, cols, r));
      journal.append_round(10LL * (r + 1), r + 1, 100u * (r + 1), all,
                           static_cast<std::size_t>(r));
    }
  }

  static PopulateJournal::Fingerprint fingerprint() {
    PopulateJournal::Fingerprint fp;
    fp.seed = 5;
    fp.count = 99;
    fp.width_nm = 1000;
    fp.height_nm = 1000;
    return fp;
  }

  static void expect_rounds(const PopulateJournal::State& s, int rounds, int rows, int cols) {
    EXPECT_EQ(s.rounds, rounds);
    EXPECT_EQ(s.attempts, 10LL * rounds);
    EXPECT_EQ(s.next_stream, 100u * static_cast<std::uint64_t>(rounds));
    ASSERT_EQ(s.patterns.size(), static_cast<std::size_t>(rounds));
    for (int r = 0; r < rounds; ++r) {
      const squish::SquishPattern want = make_pattern(rows, cols, r);
      EXPECT_TRUE(s.patterns[static_cast<std::size_t>(r)].topology == want.topology) << r;
      EXPECT_EQ(s.patterns[static_cast<std::size_t>(r)].dx, want.dx) << r;
    }
  }
};

TEST_F(PopulateJournalFileTest, ResumeAfterTornTailKeepsLaterRounds) {
  const std::string path = ::testing::TempDir() + "/journal_torn_resume.cppj";
  std::remove(path.c_str());
  std::vector<squish::SquishPattern> all;
  {
    PopulateJournal journal(path);
    PopulateJournal::State state;
    ASSERT_FALSE(journal.open(fingerprint(), &state));
    append_rounds(journal, all, 0, 3, 4, 5);
  }
  // Crash mid-append of round 3: chop into its record.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 7);
  {
    PopulateJournal journal(path);
    PopulateJournal::State state;
    ASSERT_TRUE(journal.open(fingerprint(), &state));
    expect_rounds(state, 2, 4, 5);
    append_rounds(journal, all, 2, 5, 4, 5);
  }
  // The rounds appended after the resume must sit behind the valid prefix,
  // not behind the torn bytes where no reader can reach them.
  PopulateJournal journal(path);
  PopulateJournal::State state;
  ASSERT_TRUE(journal.open(fingerprint(), &state));
  expect_rounds(state, 5, 4, 5);
  std::remove(path.c_str());
}

TEST_F(PopulateJournalFileTest, JournalOverTheRecordCapResumesWhole) {
  // 17 rounds of one 2048x2048 pattern each: ~4 MiB records, ~68 MiB file,
  // larger than the per-record cap but a perfectly valid journal.
  constexpr int kRounds = 17;
  constexpr int kSide = 2048;
  const std::string path = ::testing::TempDir() + "/journal_large.cppj";
  std::remove(path.c_str());
  {
    PopulateJournal journal(path);
    PopulateJournal::State state;
    ASSERT_FALSE(journal.open(fingerprint(), &state));
    std::vector<squish::SquishPattern> all;
    append_rounds(journal, all, 0, kRounds, kSide, kSide);
  }
  const std::uintmax_t size = std::filesystem::file_size(path);
  ASSERT_GT(size, 64u << 20);

  PopulateJournal journal(path);
  PopulateJournal::State state;
  ASSERT_TRUE(journal.open(fingerprint(), &state));
  expect_rounds(state, kRounds, kSide, kSide);
  EXPECT_EQ(std::filesystem::file_size(path), size);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cp::core

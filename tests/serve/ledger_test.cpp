// Accepted-work accounting of serve::RequestLedger: exactly-once
// completion, duplicate detection, and the CRC32-framed journal including
// torn-tail recovery (docs/ROBUSTNESS.md).

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "serve/ledger.h"
#include "util/fs.h"
#include "util/record_log.h"

namespace cp::serve {
namespace {

namespace fs = std::filesystem;

class LedgerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("cp_ledger_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

TEST_F(LedgerTest, AcceptCompleteBalances) {
  RequestLedger ledger;
  const std::uint64_t a = ledger.accept("r0", 111);
  const std::uint64_t b = ledger.accept("r1", 222);
  EXPECT_NE(a, b);
  EXPECT_EQ(ledger.accepted(), 2);
  EXPECT_EQ(ledger.outstanding(), 2);
  ledger.complete(a, "ok");
  EXPECT_EQ(ledger.outstanding(), 1);
  ASSERT_EQ(ledger.unfinished_ids().size(), 1u);
  EXPECT_EQ(ledger.unfinished_ids()[0], "r1");
  ledger.complete(b, "failed");
  EXPECT_EQ(ledger.completed(), 2);
  EXPECT_EQ(ledger.outstanding(), 0);
  EXPECT_EQ(ledger.double_completes(), 0);
}

TEST_F(LedgerTest, DuplicateAndUnknownCompletesAreCountedNotCorrupting) {
  RequestLedger ledger;
  const std::uint64_t a = ledger.accept("r0", 1);
  ledger.complete(a, "ok");
  ledger.complete(a, "ok");       // duplicate
  ledger.complete(9999, "ok");    // never accepted
  EXPECT_EQ(ledger.completed(), 1);
  EXPECT_EQ(ledger.double_completes(), 2);
  EXPECT_EQ(ledger.outstanding(), 0);
}

TEST_F(LedgerTest, JournalRoundTrips) {
  const std::string journal = path("journal.cpsj");
  {
    RequestLedger ledger(journal);
    EXPECT_TRUE(ledger.journal_error().empty());
    const std::uint64_t a = ledger.accept("alpha", 10);
    ledger.accept("beta", 20);  // never completed
    ledger.complete(a, "ok");
    ledger.flush();
  }
  const RequestLedger::Recovered rec = RequestLedger::load(journal);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_FALSE(rec.torn_tail);
  EXPECT_EQ(rec.accepted, 2);
  EXPECT_EQ(rec.completed, 1);
  ASSERT_EQ(rec.unfinished_ids.size(), 1u);
  EXPECT_EQ(rec.unfinished_ids[0], "beta");
}

TEST_F(LedgerTest, TornTailIsDroppedOnLoad) {
  const std::string journal = path("torn.cpsj");
  {
    RequestLedger ledger(journal);
    const std::uint64_t a = ledger.accept("first", 1);
    ledger.complete(a, "ok");
    ledger.accept("second", 2);
    ledger.flush();
  }
  // Tear mid-record: chop a few bytes off the end, as a crash during the
  // final append would.
  const auto size = fs::file_size(journal);
  ASSERT_GT(size, 4u);
  fs::resize_file(journal, size - 3);

  const RequestLedger::Recovered rec = RequestLedger::load(journal);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_TRUE(rec.torn_tail);
  // The torn record was the acceptance of "second": only the first
  // accept/complete pair survives.
  EXPECT_EQ(rec.accepted, 1);
  EXPECT_EQ(rec.completed, 1);
  EXPECT_TRUE(rec.unfinished_ids.empty());
}

TEST_F(LedgerTest, HugeIdLengthInCrcValidRecordIsSkippedNotRead) {
  // Regression: an Accept record whose id_len field claims ~4GB used to pass
  // the bounds check via unsigned wraparound (21 + 0xFFFFFFFF == 20) and
  // read far past the buffer. The record is CRC-valid on purpose — only the
  // length-vs-payload consistency check can reject it.
  const std::string journal = path("evil.cpsj");
  {
    RequestLedger ledger(journal);  // writes the CPSJ file magic
    ledger.flush();
  }
  std::string payload;
  payload.append(8, '\x01');                    // seq
  payload.append(8, '\x02');                    // content hash
  payload.append(4, '\xFF');                    // id_len = 0xFFFFFFFF
  util::RecordWriter(journal, RequestLedger::kJournalMagic, fs::file_size(journal))
      .append('A', payload);                    // an Accept record

  const RequestLedger::Recovered rec = RequestLedger::load(journal);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(rec.accepted, 0);  // the lying record contributes nothing
  EXPECT_TRUE(rec.unfinished_ids.empty());
}

TEST_F(LedgerTest, MidFileCorruptionIsReportedWithItsOffset) {
  const std::string journal = path("rot.cpsj");
  {
    RequestLedger ledger(journal);
    for (const char* id : {"r0", "r1", "needle", "r3", "r4"}) {
      ledger.complete(ledger.accept(id, 7), "ok");
    }
  }
  // Bit rot inside the "needle" accept record, with intact records after
  // it: not a torn append, so the suffix must not be silently dropped.
  std::string raw = util::read_file(journal);
  const std::size_t at = raw.find("needle");
  ASSERT_NE(at, std::string::npos);
  raw[at + 2] = static_cast<char>(raw[at + 2] ^ 0x20);
  std::ofstream(journal, std::ios::binary | std::ios::trunc) << raw;

  const RequestLedger::Recovered rec = RequestLedger::load(journal);
  EXPECT_FALSE(rec.ok);
  // The frame starts at its [u8 type][u32 len] header, before seq, hash and id_len.
  const std::size_t frame_start = at - (1 + 4 + 8 + 8 + 4);
  EXPECT_NE(rec.error.find("byte " + std::to_string(frame_start)), std::string::npos)
      << rec.error;
}

TEST_F(LedgerTest, ForeignFileReportsNotOk) {
  const std::string bogus = path("bogus.cpsj");
  std::ofstream(bogus) << "this is not a ledger journal";
  const RequestLedger::Recovered rec = RequestLedger::load(bogus);
  EXPECT_FALSE(rec.ok);
  EXPECT_FALSE(rec.error.empty());
}

TEST_F(LedgerTest, MissingFileReportsNotOk) {
  EXPECT_FALSE(RequestLedger::load(path("never_written.cpsj")).ok);
}

TEST_F(LedgerTest, UnwritableJournalPathIsNonFatal) {
  RequestLedger ledger(path("no_such_dir") + "/journal.cpsj");
  EXPECT_FALSE(ledger.journal_error().empty());
  // Accounting still works without the audit trail.
  const std::uint64_t a = ledger.accept("r0", 1);
  ledger.complete(a, "ok");
  EXPECT_EQ(ledger.outstanding(), 0);
}

}  // namespace
}  // namespace cp::serve

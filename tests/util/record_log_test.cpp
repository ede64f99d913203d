// Corruption sweep of the shared append-only record log (util/record_log.h,
// docs/ROBUSTNESS.md "Record logs"): truncation at every length is a torn
// tail ending at the last whole frame, no bit flip is silently accepted, a
// zero-filled tail is torn, and a length field over the cap is rejected
// without being read through. Runs under ASan/UBSan in corruption_test.

#include "util/record_log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/fs.h"

namespace cp::util {
namespace {

constexpr std::string_view kMagic = "CPTEST01";

struct Record {
  std::uint8_t type;
  std::string payload;
  bool operator==(const Record&) const = default;
};

const std::vector<Record>& fixture_records() {
  static const std::vector<Record> records = {
      {1, "alpha"}, {2, ""}, {1, std::string(40, 'x')}, {3, "last record"}};
  return records;
}

std::string temp_path(const char* name) { return ::testing::TempDir() + "/" + name; }

void overwrite(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

struct Scanned {
  LogScan scan;
  std::vector<Record> records;
};

Scanned scan(const std::string& path) {
  Scanned out;
  out.scan = scan_log(path, kMagic, [&](std::uint8_t type, std::string_view payload) {
    out.records.push_back({type, std::string(payload)});
  });
  return out;
}

/// Writes the fixture through RecordWriter; `ends` receives the offset after
/// the magic and after each frame.
std::string write_fixture(const std::string& path, std::vector<std::uint64_t>& ends) {
  std::remove(path.c_str());
  {
    RecordWriter writer(path, kMagic, 0);
    ends.push_back(writer.size());
    for (const Record& r : fixture_records()) {
      writer.append(r.type, r.payload);
      ends.push_back(writer.size());
    }
  }
  return read_file(path);
}

/// The records delivered must be an unaltered prefix of the fixture.
void expect_prefix(const std::vector<Record>& got, std::size_t count, const std::string& what) {
  ASSERT_EQ(got.size(), count) << what;
  for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(got[i], fixture_records()[i]) << what;
}

TEST(RecordLogTest, RoundTripIsCleanAndMissingFileIsEmpty) {
  const std::string path = temp_path("rlog_roundtrip.log");
  std::vector<std::uint64_t> ends;
  const std::string original = write_fixture(path, ends);
  EXPECT_EQ(original.substr(0, kMagic.size()), kMagic);
  const Scanned s = scan(path);
  EXPECT_EQ(s.scan.end, LogScan::End::kClean);
  EXPECT_EQ(s.scan.valid_end, original.size());
  EXPECT_EQ(s.scan.file_bytes, original.size());
  expect_prefix(s.records, fixture_records().size(), "round trip");

  std::remove(path.c_str());
  const Scanned missing = scan(path);
  EXPECT_EQ(missing.scan.end, LogScan::End::kClean);
  EXPECT_EQ(missing.scan.valid_end, 0u);
  EXPECT_TRUE(missing.records.empty());
}

TEST(RecordLogTest, ForeignMagicThrows) {
  const std::string path = temp_path("rlog_foreign.log");
  overwrite(path, "NOTALOG!" + std::string(20, 'x'));
  EXPECT_THROW(scan(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(RecordLogTest, WriterTruncatesToValidEndBeforeAppending) {
  const std::string path = temp_path("rlog_writer.log");
  std::vector<std::uint64_t> ends;
  write_fixture(path, ends);
  {
    RecordWriter writer(path, kMagic, ends[2]);  // keep the first two records
    EXPECT_EQ(writer.size(), ends[2]);
    writer.append(9, "appended");
    writer.sync();
  }
  Scanned s = scan(path);
  EXPECT_EQ(s.scan.end, LogScan::End::kClean);
  ASSERT_EQ(s.records.size(), 3u);
  EXPECT_EQ(s.records[1], fixture_records()[1]);
  EXPECT_EQ(s.records[2], (Record{9, "appended"}));

  // valid_end 0 restarts the file with a fresh magic.
  { RecordWriter writer(path, kMagic, 0); }
  s = scan(path);
  EXPECT_EQ(s.scan.end, LogScan::End::kClean);
  EXPECT_EQ(s.scan.valid_end, kMagic.size());
  EXPECT_TRUE(s.records.empty());
  std::remove(path.c_str());
}

TEST(RecordLogTest, TruncationAtEveryPrefixLengthIsATornTail) {
  const std::string path = temp_path("rlog_trunc.log");
  std::vector<std::uint64_t> ends;
  const std::string original = write_fixture(path, ends);
  for (std::size_t len = 0; len < original.size(); ++len) {
    overwrite(path, original.substr(0, len));
    const std::string what = "truncate to " + std::to_string(len);
    Scanned s;
    ASSERT_NO_THROW(s = scan(path)) << what;
    // The last whole frame at or before `len` (0 while the magic is incomplete).
    std::size_t whole = 0;
    while (whole < ends.size() && ends[whole] <= len) ++whole;
    const std::uint64_t valid_end = whole == 0 ? 0 : ends[whole - 1];
    EXPECT_EQ(s.scan.valid_end, valid_end) << what;
    const bool clean = len == valid_end;
    EXPECT_EQ(s.scan.end, clean ? LogScan::End::kClean : LogScan::End::kTorn) << what;
    expect_prefix(s.records, whole == 0 ? 0 : whole - 1, what);
  }
  std::remove(path.c_str());
}

TEST(RecordLogTest, BitFlipAtEveryByteNeverSilent) {
  const std::string path = temp_path("rlog_flip.log");
  std::vector<std::uint64_t> ends;
  const std::string original = write_fixture(path, ends);
  for (std::size_t pos = 0; pos < original.size(); ++pos) {
    std::string mutated = original;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x20);
    overwrite(path, mutated);
    const std::string what = "flip at " + std::to_string(pos);
    if (pos < kMagic.size()) {
      EXPECT_THROW(scan(path), std::runtime_error) << what;
      continue;
    }
    const Scanned s = scan(path);
    std::size_t frame = 1;  // ends[frame - 1] <= pos < ends[frame]
    while (ends[frame] <= pos) ++frame;
    const std::uint64_t start = ends[frame - 1];
    EXPECT_NE(s.scan.end, LogScan::End::kClean) << what;
    EXPECT_EQ(s.scan.valid_end, start) << what;
    expect_prefix(s.records, frame - 1, what);
    // Outside the length field the frame keeps its extent, so its CRC fails
    // in place: torn when it is the final frame, corruption otherwise.
    const bool length_field = pos >= start + 1 && pos < start + 5;
    if (!length_field) {
      const bool last = frame + 1 == ends.size();
      EXPECT_EQ(s.scan.end, last ? LogScan::End::kTorn : LogScan::End::kCorrupt) << what;
    }
  }
  std::remove(path.c_str());
}

TEST(RecordLogTest, ZeroFilledTailIsTorn) {
  const std::string path = temp_path("rlog_zero.log");
  std::vector<std::uint64_t> ends;
  const std::string original = write_fixture(path, ends);
  // Blocks a crashed writer allocated but never filled, from every offset.
  for (std::size_t keep = kMagic.size(); keep < original.size(); ++keep) {
    std::string mutated = original.substr(0, keep);
    mutated.resize(original.size() + 16, '\0');
    overwrite(path, mutated);
    const std::string what = "zero tail from " + std::to_string(keep);
    const Scanned s = scan(path);
    std::size_t whole = 0;
    while (whole < ends.size() && ends[whole] <= keep) ++whole;
    EXPECT_EQ(s.scan.end, LogScan::End::kTorn) << what;
    EXPECT_EQ(s.scan.valid_end, ends[whole - 1]) << what;
    expect_prefix(s.records, whole - 1, what);
  }
  std::remove(path.c_str());
}

TEST(RecordLogTest, LengthFieldOverTheCapIsRejectedUnread) {
  const std::string path = temp_path("rlog_cap.log");
  // A header claiming ~4 GiB with a few bytes behind it: an incomplete frame.
  std::string data(kMagic);
  data.push_back('\x01');
  put_u32(data, 0xfffffff0u);
  data += "short";
  overwrite(path, data);
  Scanned s = scan(path);
  EXPECT_EQ(s.scan.end, LogScan::End::kTorn);
  EXPECT_EQ(s.scan.valid_end, kMagic.size());
  EXPECT_TRUE(s.records.empty());

  // A length just over the cap that the file could hold: corruption at the
  // frame, reported without computing a CRC over it. The file is sparse.
  data.resize(kMagic.size() + 1);
  put_u32(data, kMaxRecordBytes + 1);
  overwrite(path, data);
  std::filesystem::resize_file(path, data.size() + kMaxRecordBytes + 16);
  std::ofstream(path, std::ios::binary | std::ios::app) << "tail";
  s = scan(path);
  EXPECT_EQ(s.scan.end, LogScan::End::kCorrupt);
  EXPECT_EQ(s.scan.valid_end, kMagic.size());
  EXPECT_TRUE(s.records.empty());

  RecordWriter writer(path, kMagic, 0);
  EXPECT_THROW(writer.append(1, std::string(kMaxRecordBytes + 1, 'x')), std::invalid_argument);
  EXPECT_EQ(writer.size(), kMagic.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cp::util

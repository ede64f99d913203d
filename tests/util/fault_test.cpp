// Fault-injection registry, retry helper, and crash-safe persistence
// primitives (docs/ROBUSTNESS.md).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "util/fault.h"
#include "util/fs.h"
#include "util/retry.h"
#include "util/rng.h"

namespace cp::util {
namespace {

std::string temp_path(const char* name) { return ::testing::TempDir() + "/" + name; }

class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::clear(); }
};

TEST_F(FaultTest, DisarmedPointIsInert) {
  fault::clear();
  EXPECT_FALSE(fault::armed());
  for (int i = 0; i < 100; ++i) EXPECT_NO_THROW(fault::point("nothing/armed"));
}

TEST_F(FaultTest, EveryNFiresOnMultiples) {
  fault::configure("t/every=every:3");
  EXPECT_TRUE(fault::armed());
  int fired = 0;
  for (int call = 1; call <= 9; ++call) {
    try {
      fault::point("t/every");
    } catch (const fault::FaultInjected& e) {
      ++fired;
      EXPECT_EQ(e.point_name(), "t/every");
      EXPECT_EQ(call % 3, 0) << "fired on call " << call;
    }
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(fault::fired_count("t/every"), 3);
  EXPECT_EQ(fault::call_count("t/every"), 9);
}

TEST_F(FaultTest, OnceFiresExactlyOnce) {
  fault::configure("t/once=once:2");
  EXPECT_NO_THROW(fault::point("t/once"));
  EXPECT_THROW(fault::point("t/once"), fault::FaultInjected);
  for (int i = 0; i < 10; ++i) EXPECT_NO_THROW(fault::point("t/once"));
  EXPECT_EQ(fault::fired_count("t/once"), 1);
}

TEST_F(FaultTest, ProbIsDeterministicPerSeed) {
  auto firing_pattern = [] {
    fault::configure("t/prob=prob:0.5:42");
    std::string pattern;
    for (int i = 0; i < 64; ++i) pattern += fault::should_fire("t/prob") ? '1' : '0';
    return pattern;
  };
  const std::string first = firing_pattern();
  EXPECT_EQ(first, firing_pattern()) << "same seed must reproduce the schedule";
  EXPECT_NE(first.find('1'), std::string::npos);
  EXPECT_NE(first.find('0'), std::string::npos);
}

TEST_F(FaultTest, MultiPointSpecAndUnlistedPointsStayInert) {
  fault::configure("a=every:1;b=once:1,c=every:2");
  EXPECT_THROW(fault::point("a"), fault::FaultInjected);
  EXPECT_THROW(fault::point("b"), fault::FaultInjected);
  EXPECT_NO_THROW(fault::point("c"));  // call 1
  EXPECT_THROW(fault::point("c"), fault::FaultInjected);
  EXPECT_NO_THROW(fault::point("unlisted"));
}

TEST_F(FaultTest, MalformedSpecThrows) {
  EXPECT_THROW(fault::configure("oops"), std::invalid_argument);
  EXPECT_THROW(fault::configure("x=every:0"), std::invalid_argument);
  EXPECT_THROW(fault::configure("x=prob:1.5:1"), std::invalid_argument);
  EXPECT_THROW(fault::configure("x=nosuch:1"), std::invalid_argument);
}

TEST_F(FaultTest, ClearDisarmsAndResetsCounters) {
  fault::configure("t/clear=every:1");
  EXPECT_THROW(fault::point("t/clear"), fault::FaultInjected);
  fault::clear();
  EXPECT_FALSE(fault::armed());
  EXPECT_EQ(fault::fired_count("t/clear"), 0);
  EXPECT_NO_THROW(fault::point("t/clear"));
}

// ---- retry -----------------------------------------------------------------

TEST(RetryTest, SucceedsAfterTransientFailures) {
  Rng rng(1);
  RetryPolicy policy;
  policy.max_attempts = 3;
  int calls = 0;
  RetryStats stats;
  const int value = retry_call(
      policy, rng,
      [&] {
        if (++calls < 3) throw std::runtime_error("transient");
        return 42;
      },
      &stats);
  EXPECT_EQ(value, 42);
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_TRUE(stats.succeeded);
}

TEST(RetryTest, RethrowsWhenBudgetExhausted) {
  Rng rng(1);
  RetryPolicy policy;
  policy.max_attempts = 2;
  int calls = 0;
  RetryStats stats;
  EXPECT_THROW(retry_call(
                   policy, rng, [&]() -> int { ++calls; throw std::runtime_error("hard"); },
                   &stats),
               std::runtime_error);
  EXPECT_EQ(calls, 2);
  EXPECT_FALSE(stats.succeeded);
}

TEST(RetryTest, VoidFunctionsWork) {
  Rng rng(1);
  int calls = 0;
  retry_call(RetryPolicy{}, rng, [&] {
    if (++calls < 2) throw std::runtime_error("transient");
  });
  EXPECT_EQ(calls, 2);
}

TEST(RetryTest, BackoffIsCappedAndJittered) {
  RetryPolicy policy;
  policy.base_delay_ms = 10.0;
  policy.max_delay_ms = 40.0;
  policy.backoff = 2.0;
  Rng rng(7);
  for (int attempt = 0; attempt < 6; ++attempt) {
    const double d = backoff_delay_ms(policy, attempt, rng);
    EXPECT_GE(d, 0.5 * 10.0);
    EXPECT_LE(d, 40.0);
  }
}

// ---- crash-safe persistence ------------------------------------------------

TEST(FsTest, Crc32KnownVector) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  // Incremental == one-shot.
  EXPECT_EQ(crc32("6789", crc32("12345")), crc32("123456789"));
}

TEST(FsTest, Crc32MatchesBytewiseDefinition) {
  // Every length around the 8-byte stride, and every split point of a
  // chained checksum, against the bit-at-a-time definition.
  auto reference = [](std::string_view data) {
    std::uint32_t c = 0xffffffffu;
    for (const char ch : data) {
      c ^= static_cast<unsigned char>(ch);
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return ~c;
  };
  Rng rng(11);
  std::string data;
  for (int i = 0; i < 41; ++i) data.push_back(static_cast<char>(rng.next_u64() & 0xff));
  const std::string_view all(data);
  for (std::size_t n = 0; n <= all.size(); ++n) {
    EXPECT_EQ(crc32(all.substr(0, n)), reference(all.substr(0, n))) << n;
    EXPECT_EQ(crc32(all.substr(n), crc32(all.substr(0, n))), reference(all)) << n;
  }
}

TEST(FsTest, AtomicWriteRoundTripAndOverwrite) {
  const std::string path = temp_path("cp_fs_atomic.bin");
  atomic_write_file(path, "first contents");
  EXPECT_EQ(read_file(path), "first contents");
  atomic_write_file(path, "second");
  EXPECT_EQ(read_file(path), "second");
  std::remove(path.c_str());
}

TEST(FsTest, AtomicWriteCreatesParentDirectories) {
  const std::string dir = temp_path("cp_fs_nested");
  const std::string path = dir + "/a/b/file.txt";
  std::filesystem::remove_all(dir);
  atomic_write_file(path, "deep");
  EXPECT_EQ(read_file(path), "deep");
  std::filesystem::remove_all(dir);
}

TEST(FsTest, ReadFileEnforcesByteCap) {
  const std::string path = temp_path("cp_fs_cap.bin");
  atomic_write_file(path, std::string(128, 'x'));
  EXPECT_NO_THROW(read_file(path, 128));
  EXPECT_THROW(read_file(path, 64), std::runtime_error);
  std::remove(path.c_str());
}

TEST(FsTest, ChecksummedRoundTripDetectsCorruption) {
  const std::string path = temp_path("cp_fs_crc.bin");
  atomic_write_file_checksummed(path, "precious payload");
  EXPECT_EQ(read_file_checksummed(path, "test", /*require_trailer=*/true), "precious payload");

  // Flip one payload byte on disk: the trailer no longer matches.
  std::string raw = read_file(path);
  raw[3] ^= 0x40;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(raw.data(), static_cast<std::streamsize>(raw.size()));
  }
  EXPECT_THROW(read_file_checksummed(path, "test"), std::runtime_error);
  std::remove(path.c_str());
}

TEST(FsTest, TrailerlessLegacyFilesTolerated) {
  const std::string path = temp_path("cp_fs_legacy.bin");
  atomic_write_file(path, "no trailer here");
  EXPECT_EQ(read_file_checksummed(path, "test"), "no trailer here");
  EXPECT_THROW(read_file_checksummed(path, "test", /*require_trailer=*/true),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST_F(FaultTest, InjectedWriteFaultLeavesDestinationIntact) {
  const std::string path = temp_path("cp_fs_faulted.bin");
  atomic_write_file(path, "stable state");
  fault::configure("io/atomic_write=once:1");
  EXPECT_THROW(atomic_write_file(path, "never lands"), fault::FaultInjected);
  fault::clear();
  EXPECT_EQ(read_file(path), "stable state") << "a failed write must not tear the old file";
  EXPECT_EQ(fault::fired_count("io/atomic_write"), 0);  // cleared
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cp::util

#include "util/fs.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "util/fault.h"
#include "util/strings.h"

namespace cp::util {

namespace {

/// Slicing-by-8 tables: table[0] is the bytewise CRC table, and table[k][i]
/// is the CRC of byte i followed by k zero bytes, so one step folds 8 bytes
/// with 8 independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

const CrcTables& crc_tables() {
  static const CrcTables tables = [] {
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
      }
    }
    return t;
  }();
  return tables;
}

std::uint32_t le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

std::uint32_t crc32(std::string_view data, std::uint32_t crc) {
  const CrcTables& t = crc_tables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  crc = ~crc;
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = le32(p) ^ crc;
    const std::uint32_t hi = le32(p + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
          t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  return ~crc;
}

std::string read_file(const std::string& path, std::uint64_t max_bytes) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) throw std::runtime_error("read_file: cannot open '" + path + "'");
  const std::streamoff size = is.tellg();
  if (size < 0) throw std::runtime_error("read_file: cannot stat '" + path + "'");
  if (max_bytes != 0 && static_cast<std::uint64_t>(size) > max_bytes) {
    throw std::runtime_error(util::format("read_file: '%s' is %lld bytes, over the %llu-byte cap",
                                          path.c_str(), static_cast<long long>(size),
                                          static_cast<unsigned long long>(max_bytes)));
  }
  is.seekg(0);
  std::string data(static_cast<std::size_t>(size), '\0');
  is.read(data.data(), size);
  if (!is) throw std::runtime_error("read_file: short read from '" + path + "'");
  return data;
}

void atomic_write_file(const std::string& path, std::string_view data) {
  fault::point("io/atomic_write");
  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(target.parent_path(), ec);
    if (ec) {
      throw std::runtime_error("atomic_write_file: cannot create directory '" +
                               target.parent_path().string() + "': " + ec.message());
    }
  }
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("atomic_write_file: cannot create", tmp);
  auto fail = [&](const char* what) {
    const int saved = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    errno = saved;
    throw_errno(what, tmp);
  };
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("atomic_write_file: write failed for");
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) fail("atomic_write_file: fsync failed for");
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    throw_errno("atomic_write_file: close failed for", tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    errno = saved;
    throw_errno("atomic_write_file: rename failed onto", path);
  }
  // Durability of the rename itself: fsync the directory, best-effort (the
  // data is already safe; a lost rename just resurfaces the old file).
  const std::string dir = target.has_parent_path() ? target.parent_path().string() : ".";
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

void atomic_write_file_checksummed(const std::string& path, std::string_view data) {
  std::string out;
  out.reserve(data.size() + kCrcTrailerBytes);
  out.assign(data);
  out += kCrcTrailerMagic;
  const std::uint32_t crc = crc32(data);
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((crc >> (8 * i)) & 0xffu));
  atomic_write_file(path, out);
}

bool has_crc_trailer(std::string_view data) {
  return data.size() >= kCrcTrailerBytes &&
         data.substr(data.size() - kCrcTrailerBytes, kCrcTrailerMagic.size()) ==
             kCrcTrailerMagic;
}

bool strip_crc_trailer(std::string& data, const std::string& context) {
  if (!has_crc_trailer(data)) return false;
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<std::uint32_t>(
                  static_cast<unsigned char>(data[data.size() - 4 + static_cast<std::size_t>(i)]))
              << (8 * i);
  }
  const std::string_view payload(data.data(), data.size() - kCrcTrailerBytes);
  const std::uint32_t actual = crc32(payload);
  if (actual != stored) {
    throw std::runtime_error(util::format("%s: checksum mismatch (stored %08x, computed %08x)",
                                          context.c_str(), stored, actual));
  }
  data.resize(data.size() - kCrcTrailerBytes);
  return true;
}

std::string read_file_checksummed(const std::string& path, const std::string& context,
                                  bool require_trailer, std::uint64_t max_bytes) {
  std::string data = read_file(path, max_bytes);
  if (!strip_crc_trailer(data, context) && require_trailer) {
    throw std::runtime_error(context + ": missing integrity trailer in '" + path + "'");
  }
  return data;
}

}  // namespace cp::util

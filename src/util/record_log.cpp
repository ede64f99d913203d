#include "util/record_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>

#include "util/fs.h"
#include "util/strings.h"

namespace cp::util {

namespace {

constexpr std::size_t kFrameHeader = 1 + 4;               // type + len
constexpr std::size_t kFrameOverhead = kFrameHeader + 4;  // + crc

std::uint32_t le32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

LogScan scan_log(const std::string& path, std::string_view magic,
                 const std::function<void(std::uint8_t, std::string_view)>& visit) {
  LogScan scan;
  if (!std::filesystem::exists(path)) return scan;
  const std::string data = read_file(path, kMaxLogBytes);
  scan.file_bytes = data.size();
  if (data.size() < magic.size()) {
    // A writer died inside the header: nothing to keep.
    if (!data.empty()) scan.end = LogScan::End::kTorn;
    return scan;
  }
  if (std::string_view(data).substr(0, magic.size()) != magic) {
    throw std::runtime_error(format("record_log: '%s' is not a %.*s file", path.c_str(),
                                    static_cast<int>(magic.size()), magic.data()));
  }
  std::size_t pos = magic.size();
  for (;;) {
    scan.valid_end = pos;
    if (pos == data.size()) return scan;
    const std::size_t left = data.size() - pos;
    const std::uint32_t len = left < kFrameHeader ? 0 : le32(data.data() + pos + 1);
    if (left < kFrameOverhead || len > left - kFrameOverhead) {
      scan.end = LogScan::End::kTorn;  // the final frame never completed
      return scan;
    }
    const std::string_view frame(data.data() + pos, kFrameHeader + len);
    if (len > kMaxRecordBytes || crc32(frame) != le32(frame.data() + frame.size())) {
      // A bad frame followed by nothing but zeros (blocks a crashed writer
      // allocated but never filled) is a torn append; followed by real data
      // it is corruption.
      const std::size_t next = pos + kFrameOverhead + len;
      scan.end = data.find_first_not_of('\0', next) == std::string::npos ? LogScan::End::kTorn
                                                                          : LogScan::End::kCorrupt;
      return scan;
    }
    visit(static_cast<std::uint8_t>(frame[0]), frame.substr(kFrameHeader));
    pos += kFrameOverhead + len;
  }
}

RecordWriter::RecordWriter(std::string path, std::string_view magic, std::uint64_t valid_end)
    : path_(std::move(path)), size_(valid_end) {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) throw_errno("record_log: cannot open", path_);
  try {
    if (::ftruncate(fd_, static_cast<off_t>(valid_end)) != 0) {
      throw_errno("record_log: cannot truncate", path_);
    }
    if (valid_end == 0) write_all(magic);
  } catch (...) {
    ::close(fd_);
    throw;
  }
}

RecordWriter::~RecordWriter() {
  ::fsync(fd_);
  ::close(fd_);
}

void RecordWriter::append(std::uint8_t type, std::string_view payload) {
  if (payload.size() > kMaxRecordBytes) {
    throw std::invalid_argument(format("record_log: %zu-byte record over the %u-byte cap",
                                       payload.size(), kMaxRecordBytes));
  }
  std::string frame;
  frame.reserve(kFrameOverhead + payload.size());
  frame.push_back(static_cast<char>(type));
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  frame += payload;
  put_u32(frame, crc32(frame));
  write_all(frame);
}

void RecordWriter::sync() {
  if (::fsync(fd_) != 0) throw_errno("record_log: fsync failed for", path_);
}

void RecordWriter::write_all(std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("record_log: write failed for", path_);
    }
    off += static_cast<std::size_t>(n);
  }
  size_ += bytes.size();
}

}  // namespace cp::util

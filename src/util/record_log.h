#pragma once
// Append-only record log: the one framing, reader and writer behind every
// append-only file (the CPPL pattern store, the CPPJ populate journal and
// the CPSJ serving-ledger journal). See docs/ROBUSTNESS.md "Record logs".
//
// A log is an 8-byte file magic followed by independently framed records:
//   [u8 type][u32le len][payload][u32le crc32(type|len|payload)]
// Formats own only their magic, their record types and their payload codec
// (built with the put_* helpers, parsed with Cursor).

#include <cstdint>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace cp::util {

/// Whole-file cap of the reader and per-record cap of reader and writer.
inline constexpr std::uint64_t kMaxLogBytes = 4ULL << 30;
inline constexpr std::uint32_t kMaxRecordBytes = 64u << 20;

/// How a scan ended. Records before `valid_end` were all delivered.
struct LogScan {
  enum class End {
    kClean,    // every byte belongs to an intact frame
    kTorn,     // a crashed append: an incomplete final frame, a CRC-bad frame
               // that ends at EOF, or a zero-filled tail
    kCorrupt,  // a CRC-bad (or over-cap) frame at byte valid_end, followed by data
  };
  End end = End::kClean;
  std::uint64_t valid_end = 0;   // 0 = no intact magic (missing, empty or torn header)
  std::uint64_t file_bytes = 0;  // 0 for a missing file
};

/// Read the log at `path` once and pass each intact record, in order, to
/// `visit` as (type, payload); the view is valid only during the call. A
/// missing file scans as empty. Throws std::runtime_error when the file is
/// unreadable, over kMaxLogBytes or does not start with `magic`; exceptions
/// thrown by `visit` propagate.
LogScan scan_log(const std::string& path, std::string_view magic,
                 const std::function<void(std::uint8_t, std::string_view)>& visit);

/// Appends records to a log. Construction truncates the file to
/// `valid_end` (dropping a torn tail) and, when that is 0, writes `magic`.
/// Each record is one full write(2) on an O_APPEND fd; fsync happens only in
/// sync() and on destruction. Throws std::runtime_error on I/O failure.
class RecordWriter {
 public:
  RecordWriter(std::string path, std::string_view magic, std::uint64_t valid_end);
  ~RecordWriter();
  RecordWriter(const RecordWriter&) = delete;
  RecordWriter& operator=(const RecordWriter&) = delete;

  /// Throws std::invalid_argument when `payload` exceeds kMaxRecordBytes.
  void append(std::uint8_t type, std::string_view payload);
  void sync();
  std::uint64_t size() const { return size_; }

 private:
  void write_all(std::string_view bytes);

  std::string path_;
  int fd_ = -1;
  std::uint64_t size_ = 0;
  std::string frame_;  // reused frame buffer
};

// -- payload codec: little-endian fixed-width fields -------------------------

inline void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>(v >> 8));
}

inline void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

inline void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

inline void put_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

/// u16-length-prefixed string; throws std::invalid_argument over 64 KiB.
inline void put_str16(std::string& out, std::string_view s) {
  if (s.size() > 0xffff) throw std::invalid_argument("record_log: string too long");
  put_u16(out, static_cast<std::uint16_t>(s.size()));
  out += s;
}

/// Bounds-checked little-endian cursor over a record payload; any over-read
/// throws std::runtime_error("corrupt record payload").
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(raw(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(raw(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(raw(4)); }
  std::uint64_t u64() { return raw(8); }
  double f64() {
    const std::uint64_t bits = raw(8);
    double v = 0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str16() { return std::string(bytes(u16())); }
  std::string_view bytes(std::size_t n) {
    need(n);
    const std::string_view v = data_.substr(pos_, n);
    pos_ += n;
    return v;
  }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) const {
    if (n > data_.size() - pos_) throw std::runtime_error("corrupt record payload");
  }
  std::uint64_t raw(int width) {
    need(static_cast<std::size_t>(width));
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += static_cast<std::size_t>(width);
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace cp::util

#include "io/gds_stream.h"

#include <algorithm>
#include <stdexcept>

#include "io/gds_records.h"
#include "util/fault.h"
#include "util/fs.h"
#include "util/strings.h"

namespace cp::io {

namespace {

// A corrupt stream of minimal 4-byte records must terminate, not spin.
constexpr long long kMaxStreamRecords = 1LL << 22;

std::int32_t get_i32(const std::string& p, std::size_t i) {
  return static_cast<std::int32_t>((static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
                                    << 24) |
                                   (static_cast<unsigned char>(p[i + 1]) << 16) |
                                   (static_cast<unsigned char>(p[i + 2]) << 8) |
                                   static_cast<unsigned char>(p[i + 3]));
}

std::string trim_nul(const std::string& s) {
  std::string out = s;
  while (!out.empty() && out.back() == '\0') out.pop_back();
  return out;
}

}  // namespace

GdsStreamReader::GdsStreamReader(const std::string& path, std::size_t buffer_bytes)
    : in_(path, std::ios::binary), path_(path), buffer_bytes_(std::max<std::size_t>(buffer_bytes, 512)) {
  if (!in_) throw std::runtime_error("gds_stream: cannot open '" + path + "'");
  in_.seekg(0, std::ios::end);
  const std::streamoff size = in_.tellg();
  if (size < 0) throw std::runtime_error("gds_stream: cannot stat '" + path + "'");
  region_end_ = static_cast<std::uint64_t>(size);
  // Probe for the util::fs CRC trailer: 4 magic bytes + little-endian CRC32
  // of everything before them. Foreign files have no trailer and stream
  // unchecked; a present-but-wrong trailer fails in finish().
  if (region_end_ >= util::kCrcTrailerBytes) {
    char tail[util::kCrcTrailerBytes];
    in_.seekg(size - static_cast<std::streamoff>(util::kCrcTrailerBytes));
    in_.read(tail, util::kCrcTrailerBytes);
    if (in_ && std::string_view(tail, util::kCrcTrailerMagic.size()) == util::kCrcTrailerMagic) {
      has_trailer_ = true;
      region_end_ -= util::kCrcTrailerBytes;
      stored_crc_ = 0;
      for (int i = 0; i < 4; ++i) {
        stored_crc_ |= static_cast<std::uint32_t>(static_cast<unsigned char>(
                           tail[util::kCrcTrailerMagic.size() + static_cast<std::size_t>(i)]))
                       << (8 * i);
      }
    }
  }
  in_.clear();
  in_.seekg(0);
}

void GdsStreamReader::corrupt(const std::string& what, std::uint64_t offset) const {
  throw std::runtime_error(util::format("gds_stream: %s at byte %llu", what.c_str(),
                                        static_cast<unsigned long long>(offset)));
}

void GdsStreamReader::refill(std::size_t want) {
  if (buffered() >= want) return;
  if (buf_pos_ > 0) {
    buf_.erase(0, buf_pos_);
    buf_pos_ = 0;
  }
  while (buffered() < want) {
    const std::uint64_t fed = pos_ + buffered();  // next unread file offset
    if (fed >= region_end_) return;               // record region exhausted
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(buffer_bytes_, region_end_ - fed));
    const std::size_t old = buf_.size();
    buf_.resize(old + chunk);
    in_.read(buf_.data() + old, static_cast<std::streamsize>(chunk));
    const std::size_t got = static_cast<std::size_t>(in_.gcount());
    buf_.resize(old + got);
    if (got == 0) corrupt("short read (file shrank mid-stream)", fed);
    // The CRC covers every record-region byte in file order; bytes enter the
    // buffer in file order, so folding at fill time is exact.
    running_crc_ = util::crc32(std::string_view(buf_.data() + old, got), running_crc_);
  }
}

bool GdsStreamReader::next(StreamRecord& record) {
  if (saw_endlib_) return false;
  refill(4);
  if (buffered() == 0) return false;  // clean end of region (ENDLIB-less: finish() decides)
  if (buffered() < 4) corrupt("truncated record header", pos_);
  if (++records_ > kMaxStreamRecords) corrupt("too many records", pos_);
  const auto* p = reinterpret_cast<const unsigned char*>(buf_.data() + buf_pos_);
  const std::size_t len = (static_cast<std::size_t>(p[0]) << 8) | p[1];
  record.id = static_cast<std::uint16_t>((static_cast<std::uint16_t>(p[2]) << 8) | p[3]);
  record.offset = pos_;
  if (len < 4) {
    corrupt(util::format("corrupt record length %zu (%s)", len,
                         describe_record(record.id).c_str()),
            pos_);
  }
  if (pos_ + len > region_end_) {
    corrupt(util::format("record length %zu runs past the end of the file (%s)", len,
                         describe_record(record.id).c_str()),
            pos_);
  }
  refill(len);
  if (buffered() < len) corrupt("truncated record", pos_);
  record.payload.assign(buf_.data() + buf_pos_ + 4, len - 4);
  buf_pos_ += len;
  pos_ += len;
  if (record.id == kRecEndLib) saw_endlib_ = true;
  return true;
}

void GdsStreamReader::finish(bool require_endlib) {
  if (require_endlib && !saw_endlib_) {
    throw std::runtime_error("gds_stream: missing ENDLIB in '" + path_ + "'");
  }
  // Drain the remainder of the record region: tape-format writers pad to
  // block boundaries with NULs; anything else is a torn trailer or foreign
  // bytes appended to the stream.
  while (pos_ < region_end_) {
    refill(1);
    if (buffered() == 0) corrupt("short read (file shrank mid-stream)", pos_);
    const std::size_t n = buffered();
    for (std::size_t i = 0; i < n; ++i) {
      if (buf_[buf_pos_ + i] != '\0') corrupt("trailing bytes after ENDLIB", pos_ + i);
    }
    buf_pos_ += n;
    pos_ += n;
  }
  if (has_trailer_ && running_crc_ != stored_crc_) {
    throw std::runtime_error(util::format("gds_stream: checksum mismatch (stored %08x, computed %08x)",
                                          stored_crc_, running_crc_));
  }
}

StreamStats stream_gds_structures(const std::string& path,
                                  const std::function<void(GdsStructure&&)>& on_structure) {
  util::fault::point("gds/stream");
  GdsStreamReader reader(path);
  StreamStats stats;

  StreamRecord rec;
  GdsStructure current;
  bool in_structure = false;
  bool in_boundary = false;
  int layer = 1, datatype = 0;
  std::vector<geometry::Point> loop;

  auto flush = [&] {
    if (!in_structure) return;
    ++stats.structures;
    on_structure(std::move(current));
    current = GdsStructure{};
    in_structure = false;
  };
  auto bad = [&](const char* what) {
    throw std::runtime_error(util::format("gds_stream: %s %s at byte %llu", what,
                                          describe_record(rec.id).c_str(),
                                          static_cast<unsigned long long>(rec.offset)));
  };

  while (reader.next(rec)) {
    switch (rec.id) {
      case kRecHeader:
      case kRecBgnLib:
      case kRecBgnStr:
      case kRecEndEl:
        break;
      case kRecLibName:
        stats.library_name = trim_nul(rec.payload);
        break;
      case kRecUnits:
        if (rec.payload.size() != 16) bad("bad");
        stats.dbu_per_user_unit =
            get_real8(reinterpret_cast<const unsigned char*>(rec.payload.data()));
        stats.dbu_in_meter =
            get_real8(reinterpret_cast<const unsigned char*>(rec.payload.data()) + 8);
        break;
      case kRecStrName:
        flush();  // a STRNAME without ENDSTR still ends the previous structure
        in_structure = true;
        current.name = trim_nul(rec.payload);
        break;
      case kRecBoundary:
        in_boundary = true;
        loop.clear();
        break;
      case kRecLayer:
        if (rec.payload.size() < 2) bad("bad");
        layer = (static_cast<unsigned char>(rec.payload[0]) << 8) |
                static_cast<unsigned char>(rec.payload[1]);
        break;
      case kRecDatatype:
        if (rec.payload.size() < 2) bad("bad");
        datatype = (static_cast<unsigned char>(rec.payload[0]) << 8) |
                   static_cast<unsigned char>(rec.payload[1]);
        break;
      case kRecXy: {
        if (!in_boundary) break;  // ignore paths etc.
        loop.clear();
        for (std::size_t i = 0; i + 8 <= rec.payload.size(); i += 8) {
          loop.push_back(geometry::Point{get_i32(rec.payload, i), get_i32(rec.payload, i + 4)});
        }
        if (!in_structure) {
          throw std::runtime_error(
              util::format("gds_stream: XY outside a structure at byte %llu",
                           static_cast<unsigned long long>(rec.offset)));
        }
        current.layer = layer;
        current.datatype = datatype;
        for (const geometry::Rect& r : boundary_to_rects(loop)) current.rects.push_back(r);
        ++stats.boundaries;
        in_boundary = false;
        break;
      }
      case kRecEndStr:
        flush();
        break;
      case kRecEndLib:
        flush();
        reader.finish();
        stats.bytes = reader.bytes_read();
        stats.records = reader.records_read();
        return stats;
      default:
        bad("unsupported");
    }
  }
  reader.finish();  // throws: missing ENDLIB (or trailing-garbage diagnosis)
  throw std::runtime_error("gds_stream: missing ENDLIB in '" + path + "'");
}

}  // namespace cp::io

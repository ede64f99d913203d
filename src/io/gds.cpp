#include "io/gds.h"

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <system_error>

#include "io/gds_records.h"
#include "io/gds_stream.h"
#include "util/fault.h"
#include "util/fs.h"
#include "util/strings.h"

namespace cp::io {

namespace {

// read_gds holds the whole library in memory: a file larger than this is
// refused before it is read. Orders of magnitude above anything this
// library writes; stream_gds_structures has no such cap.
constexpr std::uint64_t kMaxFileBytes = 256ULL << 20;

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v >> 8));
  out.push_back(static_cast<char>(v & 0xff));
}

void put_i32(std::string& out, std::int32_t v) {
  const std::uint32_t u = static_cast<std::uint32_t>(v);
  out.push_back(static_cast<char>(u >> 24));
  out.push_back(static_cast<char>((u >> 16) & 0xff));
  out.push_back(static_cast<char>((u >> 8) & 0xff));
  out.push_back(static_cast<char>(u & 0xff));
}

void put_record(std::string& out, std::uint16_t id, const std::string& payload) {
  if (payload.size() + 4 > 0xffff) throw std::runtime_error("gds: record too long");
  put_u16(out, static_cast<std::uint16_t>(payload.size() + 4));
  put_u16(out, id);
  out += payload;
}

std::string ascii_payload(const std::string& s) {
  std::string p = s;
  if (p.size() % 2) p.push_back('\0');  // records are word-aligned
  return p;
}

std::string timestamp_payload() {
  // 12 int16 fields twice (creation/modification); fixed epoch for
  // reproducible byte-identical output.
  std::string p;
  for (int rep = 0; rep < 2; ++rep) {
    const std::int16_t fields[6] = {2024, 1, 1, 0, 0, 0};
    for (std::int16_t f : fields) put_u16(p, static_cast<std::uint16_t>(f));
  }
  return p;
}

}  // namespace

void write_gds(const std::string& path, const GdsLibrary& library) {
  std::string out;
  {
    std::string p;
    put_u16(p, 600);  // stream version 6
    put_record(out, kRecHeader, p);
  }
  put_record(out, kRecBgnLib, timestamp_payload());
  put_record(out, kRecLibName, ascii_payload(library.name));
  {
    std::string p;
    put_real8(p, library.dbu_per_user_unit);
    put_real8(p, library.dbu_in_meter);
    put_record(out, kRecUnits, p);
  }
  for (const GdsStructure& str : library.structures) {
    put_record(out, kRecBgnStr, timestamp_payload());
    put_record(out, kRecStrName, ascii_payload(str.name));
    for (const geometry::Rect& r : str.rects) {
      put_record(out, kRecBoundary, "");
      {
        std::string p;
        put_u16(p, static_cast<std::uint16_t>(str.layer));
        put_record(out, kRecLayer, p);
      }
      {
        std::string p;
        put_u16(p, static_cast<std::uint16_t>(str.datatype));
        put_record(out, kRecDatatype, p);
      }
      {
        std::string p;  // closed loop: 5 points
        const std::int32_t xs[5] = {static_cast<std::int32_t>(r.x0),
                                    static_cast<std::int32_t>(r.x1),
                                    static_cast<std::int32_t>(r.x1),
                                    static_cast<std::int32_t>(r.x0),
                                    static_cast<std::int32_t>(r.x0)};
        const std::int32_t ys[5] = {static_cast<std::int32_t>(r.y0),
                                    static_cast<std::int32_t>(r.y0),
                                    static_cast<std::int32_t>(r.y1),
                                    static_cast<std::int32_t>(r.y1),
                                    static_cast<std::int32_t>(r.y0)};
        for (int i = 0; i < 5; ++i) {
          put_i32(p, xs[i]);
          put_i32(p, ys[i]);
        }
        put_record(out, kRecXy, p);
      }
      put_record(out, kRecEndEl, "");
    }
    put_record(out, kRecEndStr, "");
  }
  put_record(out, kRecEndLib, "");

  // Crash-safe: tmp + fsync + rename, with a CRC32 trailer after ENDLIB.
  // Readers (ours and standard viewers) stop at ENDLIB, so the trailer is
  // invisible to record parsing; GdsStreamReader verifies it at the end.
  util::fault::point("gds/write");
  util::atomic_write_file_checksummed(path, out);
}

GdsLibrary read_gds(const std::string& path) {
  util::fault::point("gds/read");
  // The whole library is resident at once, so cap the file size before
  // streaming it (a missing file fails in the stream reader instead).
  std::error_code ec;
  const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
  if (!ec && bytes > kMaxFileBytes) {
    throw std::runtime_error(util::format("gds: '%s' is %llu bytes, over the %llu-byte cap",
                                          path.c_str(), static_cast<unsigned long long>(bytes),
                                          static_cast<unsigned long long>(kMaxFileBytes)));
  }
  GdsLibrary lib;
  const StreamStats stats = stream_gds_structures(
      path, [&lib](GdsStructure&& s) { lib.structures.push_back(std::move(s)); });
  lib.name = stats.library_name;
  lib.dbu_per_user_unit = stats.dbu_per_user_unit;
  lib.dbu_in_meter = stats.dbu_in_meter;
  return lib;
}

}  // namespace cp::io

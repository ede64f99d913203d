#include "pattlib/pattern_store.h"

#include <filesystem>
#include <stdexcept>

#include "io/gds.h"
#include "obs/registry.h"
#include "util/fault.h"
#include "util/fs.h"
#include "util/record_log.h"
#include "util/strings.h"

namespace cp::pattlib {

namespace {

// CPPL (docs/LIBRARY.md) is a record log (util/record_log.h) under this
// magic; the store owns only the two payload codecs below.
constexpr std::string_view kFileMagic = "CPPLIB01";
constexpr std::uint8_t kPatternRecord = 1;
constexpr std::uint8_t kDrcRecord = 2;

using util::Cursor;
using util::put_f64;
using util::put_str16;
using util::put_u16;
using util::put_u32;
using util::put_u64;

std::string serialize_pattern(const StoredPattern& e) {
  const squish::Topology& t = e.pattern.topology;
  if (t.rows() > 0xffff || t.cols() > 0xffff) {
    throw std::invalid_argument("pattlib: topology too large for the store format");
  }
  std::string p;
  put_u16(p, static_cast<std::uint16_t>(t.rows()));
  put_u16(p, static_cast<std::uint16_t>(t.cols()));
  // Topology bits: row-major, 8 cells per byte, LSB first -- the low bytes
  // of each packed row word, whose tail bits are zero.
  const int bytes_per_row = (t.cols() + 7) / 8;
  for (int r = 0; r < t.rows(); ++r) {
    const std::uint64_t* row = t.row_words(r);
    for (int b = 0; b < bytes_per_row; ++b) {
      p.push_back(static_cast<char>(row[b >> 3] >> (8 * (b & 7))));
    }
  }
  auto put_deltas = [&p](const squish::DeltaVec& d) {
    for (const geometry::Coord v : d) {
      if (v <= 0 || v > 0xffffffffLL) {
        throw std::invalid_argument("pattlib: delta out of the store's u32 range");
      }
      put_u32(p, static_cast<std::uint32_t>(v));
    }
  };
  put_deltas(e.pattern.dx);
  put_deltas(e.pattern.dy);
  put_str16(p, e.meta.source);
  put_str16(p, e.meta.structure);
  put_str16(p, e.meta.style_tag);
  put_u32(p, static_cast<std::uint32_t>(e.meta.layer));
  put_u64(p, static_cast<std::uint64_t>(e.meta.window_x));
  put_u64(p, static_cast<std::uint64_t>(e.meta.window_y));
  p.push_back(static_cast<char>(e.meta.drc));
  put_f64(p, e.meta.density);
  put_u16(p, static_cast<std::uint16_t>(e.meta.complexity_x));
  put_u16(p, static_cast<std::uint16_t>(e.meta.complexity_y));
  return p;
}

StoredPattern deserialize_pattern(std::string_view payload) {
  Cursor cur(payload);
  StoredPattern e;
  const int rows = cur.u16();
  const int cols = cur.u16();
  if (rows == 0 || cols == 0) throw std::runtime_error("pattlib: corrupt record payload");
  const int bytes_per_row = (cols + 7) / 8;
  squish::Topology t(rows, cols);
  for (int r = 0; r < rows; ++r) {
    const std::string_view row = cur.bytes(static_cast<std::size_t>(bytes_per_row));
    std::uint64_t word = 0;
    for (int b = 0; b < bytes_per_row; ++b) {
      word |= std::uint64_t{static_cast<unsigned char>(row[static_cast<std::size_t>(b)])}
              << (8 * (b & 7));
      // xor_word onto zero bits sets them, and drops padding past `cols`.
      if ((b & 7) == 7 || b + 1 == bytes_per_row) {
        t.xor_word(r, b >> 3, word);
        word = 0;
      }
    }
  }
  e.pattern.topology = std::move(t);
  e.pattern.dx.resize(static_cast<std::size_t>(cols));
  for (auto& d : e.pattern.dx) d = static_cast<geometry::Coord>(cur.u32());
  e.pattern.dy.resize(static_cast<std::size_t>(rows));
  for (auto& d : e.pattern.dy) d = static_cast<geometry::Coord>(cur.u32());
  e.meta.source = cur.str16();
  e.meta.structure = cur.str16();
  e.meta.style_tag = cur.str16();
  e.meta.layer = static_cast<int>(cur.u32());
  e.meta.window_x = static_cast<geometry::Coord>(cur.u64());
  e.meta.window_y = static_cast<geometry::Coord>(cur.u64());
  const std::uint64_t drc = static_cast<unsigned char>(cur.bytes(1)[0]);
  if (drc > 2) throw std::runtime_error("pattlib: corrupt record payload");
  e.meta.drc = static_cast<DrcStatus>(drc);
  e.meta.density = cur.f64();
  e.meta.complexity_x = cur.u16();
  e.meta.complexity_y = cur.u16();
  if (!cur.exhausted()) throw std::runtime_error("pattlib: corrupt record payload");
  if (!e.pattern.well_formed()) throw std::runtime_error("pattlib: corrupt record payload");
  return e;
}

/// FNV-1a over the dimensions and packed words of an already deduplicated
/// topology.
std::uint64_t canonical_hash(const squish::Topology& d) {
  std::uint64_t h = 1469598103934665603ULL;
  auto fnv = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  fnv(static_cast<std::uint64_t>(d.rows()));
  fnv(static_cast<std::uint64_t>(d.cols()));
  // The zero-tail invariant makes packed words canonical for equal grids.
  for (int r = 0; r < d.rows(); ++r) {
    for (int w = 0; w < d.words_per_row(); ++w) fnv(d.word(r, w));
  }
  return h;
}

}  // namespace

const char* to_string(DrcStatus status) {
  switch (status) {
    case DrcStatus::kUnknown: return "unknown";
    case DrcStatus::kClean: return "clean";
    case DrcStatus::kViolating: return "violating";
  }
  return "unknown";
}

std::uint64_t topology_hash(const squish::Topology& t) { return canonical_hash(t.deduplicated()); }

PatternStore::PatternStore(std::string path) : path_(std::move(path)) { open_and_replay(); }

void PatternStore::open_and_replay() {
  namespace fs = std::filesystem;
  const fs::path target(path_);
  if (target.has_parent_path()) {
    std::error_code ec;
    fs::create_directories(target.parent_path(), ec);
    if (ec) {
      throw std::runtime_error("pattlib: cannot create directory '" +
                               target.parent_path().string() + "': " + ec.message());
    }
  }

  const util::LogScan scan =
      util::scan_log(path_, kFileMagic, [this](std::uint8_t type, std::string_view payload) {
        if (type == kPatternRecord) {
          StoredPattern e = deserialize_pattern(payload);
          e.id = static_cast<std::uint64_t>(entries_.size());
          e.topology_hash = topology_hash(e.pattern.topology);
          by_hash_.emplace(e.topology_hash, e.id);  // first writer wins, like add()
          entries_.push_back(std::move(e));
        } else if (type == kDrcRecord) {
          Cursor cur(payload);
          const std::uint64_t id = cur.u64();
          const std::uint8_t status = cur.u8();
          if (!cur.exhausted() || status > 2 || id >= entries_.size()) {
            throw std::runtime_error("pattlib: corrupt record payload");
          }
          entries_[static_cast<std::size_t>(id)].meta.drc = static_cast<DrcStatus>(status);
        } else {
          throw std::runtime_error(util::format("pattlib: unknown record type %u in '%s'",
                                                static_cast<unsigned>(type), path_.c_str()));
        }
      });
  if (scan.end == util::LogScan::End::kCorrupt) {
    // Bit rot inside the file: fail loudly instead of silently dropping history.
    throw std::runtime_error(util::format("pattlib: checksum mismatch in '%s' at byte %llu",
                                          path_.c_str(),
                                          static_cast<unsigned long long>(scan.valid_end)));
  }
  recovered_bytes_ = scan.file_bytes - scan.valid_end;
  if (recovered_bytes_ > 0) obs::count("pattlib/recovered_records");
  // The writer truncates the torn tail before anything new is appended, so a
  // re-open sees a bit-identical store.
  log_.emplace(path_, kFileMagic, scan.valid_end);
}

void PatternStore::append_record(std::uint8_t type, const std::string& payload) {
  if (!log_) return;  // in-memory store
  util::fault::point("pattlib/append");
  log_->append(type, payload);
}

void PatternStore::flush() {
  if (log_) log_->sync();
}

AddResult PatternStore::add(const squish::SquishPattern& pattern, PatternMeta meta) {
  if (!pattern.well_formed() || pattern.topology.empty()) {
    throw std::invalid_argument("pattlib: malformed or empty pattern");
  }
  // One deduplication yields both the dedup key and the complexity cache.
  const squish::Topology canonical = pattern.topology.deduplicated();
  const std::uint64_t hash = canonical_hash(canonical);
  if (const auto it = by_hash_.find(hash); it != by_hash_.end()) {
    ++dedup_rejects_;
    obs::count("pattlib/dedup_rejects");
    return {it->second, false};
  }
  StoredPattern e;
  e.id = static_cast<std::uint64_t>(entries_.size());
  e.pattern = pattern;
  e.meta = std::move(meta);
  e.meta.density = pattern.topology.density();
  e.meta.complexity_x = canonical.cols();
  e.meta.complexity_y = canonical.rows();
  e.topology_hash = hash;
  append_record(kPatternRecord, serialize_pattern(e));
  by_hash_.emplace(hash, e.id);
  entries_.push_back(std::move(e));
  obs::count("pattlib/added");
  return {entries_.back().id, true};
}

const StoredPattern& PatternStore::at(std::uint64_t id) const {
  if (id >= entries_.size()) {
    throw std::out_of_range(util::format("pattlib: no pattern %llu (store holds %zu)",
                                         static_cast<unsigned long long>(id), entries_.size()));
  }
  return entries_[static_cast<std::size_t>(id)];
}

std::optional<std::uint64_t> PatternStore::find_by_hash(std::uint64_t hash) const {
  const auto it = by_hash_.find(hash);
  if (it == by_hash_.end()) return std::nullopt;
  return it->second;
}

void PatternStore::set_drc(std::uint64_t id, DrcStatus status) {
  StoredPattern& e = entries_[static_cast<std::size_t>(at(id).id)];
  std::string payload;
  put_u64(payload, id);
  payload.push_back(static_cast<char>(status));
  append_record(kDrcRecord, payload);
  e.meta.drc = status;
}

std::vector<std::uint64_t> PatternStore::query(const Query& q) const {
  std::vector<std::uint64_t> out;
  for (const StoredPattern& e : entries_) {
    if (q.limit > 0 && static_cast<long long>(out.size()) >= q.limit) break;
    const PatternMeta& m = e.meta;
    if (!q.style_tag.empty() && m.style_tag != q.style_tag) continue;
    if (!q.source_contains.empty() && m.source.find(q.source_contains) == std::string::npos) {
      continue;
    }
    if (q.layer >= 0 && m.layer != q.layer) continue;
    if (q.drc >= 0 && static_cast<int>(m.drc) != q.drc) continue;
    if (m.density < q.min_density || m.density > q.max_density) continue;
    const int rows = e.pattern.topology.rows();
    const int cols = e.pattern.topology.cols();
    if (rows < q.min_rows || (q.max_rows > 0 && rows > q.max_rows)) continue;
    if (cols < q.min_cols || (q.max_cols > 0 && cols > q.max_cols)) continue;
    out.push_back(e.id);
  }
  return out;
}

std::vector<squish::SquishPattern> PatternStore::patterns(
    const std::vector<std::uint64_t>& ids) const {
  std::vector<squish::SquishPattern> out;
  out.reserve(ids.size());
  for (const std::uint64_t id : ids) out.push_back(at(id).pattern);
  return out;
}

StoreStats PatternStore::stats() const {
  StoreStats s;
  s.patterns = entries_.size();
  s.dedup_rejects = dedup_rejects_;
  s.file_bytes = log_ ? log_->size() : 0;
  s.recovered_bytes = recovered_bytes_;
  for (const StoredPattern& e : entries_) {
    ++s.by_style[e.meta.style_tag];
    ++s.by_layer[e.meta.layer];
  }
  return s;
}

int PatternStore::export_gds(const std::string& gds_path,
                             const std::vector<std::uint64_t>& ids) const {
  io::GdsLibrary lib;
  lib.name = "CHATPATTERN_STORE";
  for (const std::uint64_t id : ids) {
    const StoredPattern& e = at(id);
    io::GdsStructure str;
    str.name = util::format("PATTERN_%08llu", static_cast<unsigned long long>(id));
    str.layer = e.meta.layer;
    str.rects = squish::unsquish(e.pattern);
    lib.structures.push_back(std::move(str));
  }
  io::write_gds(gds_path, lib);
  return static_cast<int>(lib.structures.size());
}

int PatternStore::export_pbm(const std::string& dir,
                             const std::vector<std::uint64_t>& ids) const {
  std::string manifest;
  int written = 0;
  for (const std::uint64_t id : ids) {
    const StoredPattern& e = at(id);
    const std::string name = util::format("pattern_%08llu.pbm", static_cast<unsigned long long>(id));
    util::atomic_write_file(dir + "/" + name, e.pattern.topology.to_pbm());
    manifest += util::format("%s %lldx%lld nm style=%s layer=%d drc=%s\n", name.c_str(),
                             static_cast<long long>(e.pattern.width_nm()),
                             static_cast<long long>(e.pattern.height_nm()),
                             e.meta.style_tag.c_str(), e.meta.layer, to_string(e.meta.drc));
    ++written;
  }
  util::atomic_write_file(dir + "/manifest.txt",
                          util::format("count %d\n", written) + manifest);
  return written + 1;
}

}  // namespace cp::pattlib

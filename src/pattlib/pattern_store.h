#pragma once
// Persistent, queryable pattern library (docs/LIBRARY.md).
//
// A PatternStore is an append-only record file ("CPPL" format) plus an
// in-memory index. Every stored pattern carries provenance metadata (source
// file, structure, window origin), a style tag, layer, DRC status and a
// cached metric triple (density, complexity), and is deduplicated by the
// canonical topology hash — the hash of the minimal (deduplicated) squish
// matrix, so two windows that differ only in scan-line splits of the same
// physical topology collapse to one entry.
//
// Durability model: the file is a util::RecordWriter log (docs/ROBUSTNESS.md
// "Record logs"): a torn tail (a crash mid-append) is truncated away on open,
// so a killed writer restarts with exactly the patterns that were fully
// appended — the crash-restart contract gated by scripts/check_pattlib.sh.
// Bit rot inside the file surfaces as std::runtime_error("...checksum...").
//
// Thread model: single writer, arbitrary const readers between mutations
// (the serve layer queries a store that is not being mutated concurrently).

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "squish/squish.h"
#include "util/record_log.h"

namespace cp::pattlib {

/// Cached legality verdict; kUnknown until a caller runs DRC and records it.
enum class DrcStatus : std::uint8_t { kUnknown = 0, kClean = 1, kViolating = 2 };

const char* to_string(DrcStatus status);

/// Per-pattern provenance + classification metadata. The metric cache
/// (density, complexity) is filled by the store on add.
struct PatternMeta {
  std::string source;     // originating file, or "generated"
  std::string structure;  // GDS structure name ("" for non-GDS sources)
  std::string style_tag;  // free-form category label, query key
  int layer = 1;
  geometry::Coord window_x = 0;  // window origin within the source, nm
  geometry::Coord window_y = 0;
  DrcStatus drc = DrcStatus::kUnknown;
  // -- metric cache (recomputed on add; persisted for query without load) --
  double density = 0.0;
  int complexity_x = 0;
  int complexity_y = 0;
};

struct StoredPattern {
  std::uint64_t id = 0;  // dense, insertion-ordered
  squish::SquishPattern pattern;
  PatternMeta meta;
  std::uint64_t topology_hash = 0;  // canonical (minimal-form) hash
};

/// Conjunctive metadata predicate; default-constructed matches everything.
struct Query {
  std::string style_tag;        // "" = any
  std::string source_contains;  // "" = any
  int layer = -1;               // -1 = any
  int drc = -1;                 // -1 = any, else static_cast<int>(DrcStatus)
  double min_density = 0.0;
  double max_density = 1.0;
  int min_rows = 0, max_rows = 0;  // 0 max = unbounded (topology dims)
  int min_cols = 0, max_cols = 0;
  long long limit = 0;  // 0 = unlimited
};

struct AddResult {
  std::uint64_t id = 0;   // new id, or the id of the canonical twin
  bool inserted = false;  // false = deduplicated against an existing entry
};

struct StoreStats {
  std::size_t patterns = 0;
  long long dedup_rejects = 0;  // add() calls dropped by the hash index (this session)
  std::uint64_t file_bytes = 0;
  std::uint64_t recovered_bytes = 0;  // torn tail truncated at open
  std::map<std::string, std::size_t> by_style;
  std::map<int, std::size_t> by_layer;
};

/// Canonical topology hash: FNV-1a over the dimensions and packed words of
/// `t.deduplicated()`. Invariant under scan-line splits; the dedup key.
std::uint64_t topology_hash(const squish::Topology& t);

class PatternStore {
 public:
  /// In-memory store (no backing file). add() keeps everything resident.
  PatternStore() = default;

  /// Open or create the store file at `path`, replaying every valid record
  /// into the index and truncating a torn tail if the previous writer died
  /// mid-append. Throws std::runtime_error on unreadable files or checksum
  /// failures inside the valid prefix.
  explicit PatternStore(std::string path);

  PatternStore(PatternStore&&) = delete;
  PatternStore& operator=(PatternStore&&) = delete;

  /// Append a pattern. Recomputes the metric cache, hashes the canonical
  /// topology and consults the dedup index: a duplicate is NOT appended and
  /// comes back {existing id, inserted=false}. Throws std::invalid_argument
  /// on malformed patterns and std::runtime_error on I/O failure.
  AddResult add(const squish::SquishPattern& pattern, PatternMeta meta);

  /// fsync the append stream (no-op for in-memory stores). Call after a
  /// batch of adds; the destructor also flushes.
  void flush();

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const std::string& path() const { return path_; }
  const StoredPattern& at(std::uint64_t id) const;
  /// Lookup by canonical topology hash (the dedup index).
  std::optional<std::uint64_t> find_by_hash(std::uint64_t hash) const;

  /// Record DRC status on an existing entry. In-memory only mutation is not
  /// supported for persisted stores (append-only file): the status is
  /// persisted as a small amendment record.
  void set_drc(std::uint64_t id, DrcStatus status);

  /// Ids matching `query`, in insertion (= id) order — deterministic across
  /// runs and re-opens of the same file.
  std::vector<std::uint64_t> query(const Query& q) const;

  /// Patterns for a set of ids (the core::PatternLibrary import bridge).
  std::vector<squish::SquishPattern> patterns(const std::vector<std::uint64_t>& ids) const;

  StoreStats stats() const;

  /// Export bridges. `ids` from query(); export_gds writes one structure per
  /// pattern on its stored layer; export_pbm mirrors PatternLibrary's
  /// layout (PBM files + manifest, both written atomically).
  int export_gds(const std::string& gds_path, const std::vector<std::uint64_t>& ids) const;
  int export_pbm(const std::string& dir, const std::vector<std::uint64_t>& ids) const;

 private:
  void open_and_replay();
  void append_record(std::uint8_t type, const std::string& payload);

  std::string path_;                      // empty = in-memory
  std::optional<util::RecordWriter> log_;  // append stream of persisted stores
  std::uint64_t recovered_bytes_ = 0;
  long long dedup_rejects_ = 0;
  std::vector<StoredPattern> entries_;
  std::map<std::uint64_t, std::uint64_t> by_hash_;  // canonical hash -> id
};

}  // namespace cp::pattlib

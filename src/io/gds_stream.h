#pragma once
// Streaming GDSII ingestion: a record-level pull parser over buffered reads
// whose memory footprint is one I/O buffer plus one record payload (records
// are <= 64 KiB by format), independent of file size — the entry point for
// feeding real layout libraries into the pattern pipeline without ever
// materialising the whole layout (docs/LIBRARY.md).
//
// Two layers:
//
//   * GdsStreamReader — the raw record cursor. next() yields one record at a
//     time with its absolute byte offset; finish() (call after ENDLIB)
//     checks that only NUL tape padding remains and verifies the util::fs
//     CRC32 trailer when one is present, computed incrementally while the
//     records were being read. Foreign files without a trailer stream
//     unchecked.
//   * stream_gds_structures — the element state machine (io/gds_records.h
//     vocabulary, BOUNDARY decomposition): invokes a callback per completed
//     structure and then drops it, so only one structure is resident at a
//     time. read_gds (io/gds.h) is this function collecting every
//     structure.
//
// Corruption discipline (docs/ROBUSTNESS.md): truncation, garbage record
// headers, declared lengths past EOF, non-rectilinear boundaries and
// checksum mismatches all surface as std::runtime_error with the offending
// record's name and absolute byte offset — never UB, a hang, or a silently
// wrong library.

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "io/gds.h"

namespace cp::io {

/// One GDSII record as yielded by GdsStreamReader.
struct StreamRecord {
  std::uint16_t id = 0;
  std::uint64_t offset = 0;  // absolute byte offset of the 4-byte header
  std::string payload;       // reused between next() calls
};

class GdsStreamReader {
 public:
  /// Opens `path` and probes the trailing 8 bytes for the util::fs CRC
  /// trailer (present on everything write_gds produces, absent on foreign
  /// files). Throws std::runtime_error when the file cannot be opened.
  explicit GdsStreamReader(const std::string& path, std::size_t buffer_bytes = 64 * 1024);

  GdsStreamReader(const GdsStreamReader&) = delete;
  GdsStreamReader& operator=(const GdsStreamReader&) = delete;

  /// Advance to the next record. Returns false at the end of the record
  /// region (end of file, minus any CRC trailer). Throws std::runtime_error
  /// on a corrupt record header, a declared length past EOF, or too many
  /// records.
  bool next(StreamRecord& record);

  /// Call once after the consumer saw ENDLIB (or next() returned false):
  /// drains the remainder, requiring NUL-only padding, and verifies the CRC
  /// trailer when one was detected at open. Throws std::runtime_error on
  /// trailing garbage, a checksum mismatch, or a missing ENDLIB when
  /// `require_endlib`.
  void finish(bool require_endlib = true);

  /// Bytes consumed from the file so far (records + padding; excludes the
  /// CRC trailer). The ingestion-bench MB/s numerator.
  std::uint64_t bytes_read() const { return pos_; }
  /// Records yielded so far.
  long long records_read() const { return records_; }
  /// True when the file carries a CRC trailer (written by this library).
  bool has_trailer() const { return has_trailer_; }

 private:
  /// Ensure >= want bytes buffered (best effort; short at end of region).
  std::size_t buffered() const { return buf_.size() - buf_pos_; }
  void refill(std::size_t want);
  [[noreturn]] void corrupt(const std::string& what, std::uint64_t offset) const;

  std::ifstream in_;
  std::string path_;
  std::string buf_;          // sliding window over the record region
  std::size_t buf_pos_ = 0;  // consumed prefix of buf_
  std::size_t buffer_bytes_;
  std::uint64_t pos_ = 0;        // absolute offset of buf_[buf_pos_]
  std::uint64_t region_end_ = 0; // file size minus trailer
  long long records_ = 0;
  bool saw_endlib_ = false;
  bool has_trailer_ = false;
  std::uint32_t running_crc_ = 0;  // over every region byte consumed
  std::uint32_t stored_crc_ = 0;   // from the trailer, when present
};

/// Library-level metadata plus streaming counters returned by
/// stream_gds_structures.
struct StreamStats {
  std::string library_name;
  double dbu_per_user_unit = 1e-3;
  double dbu_in_meter = 1e-9;
  std::uint64_t bytes = 0;     // record-region bytes streamed
  long long records = 0;       // records parsed
  long long structures = 0;    // structures delivered
  long long boundaries = 0;    // BOUNDARY elements decomposed
};

/// Stream every structure of `path` through `on_structure`, holding at most
/// one structure in memory. Throws std::runtime_error with record name and
/// byte offset on any corruption.
StreamStats stream_gds_structures(const std::string& path,
                                  const std::function<void(GdsStructure&&)>& on_structure);

}  // namespace cp::io

#pragma once
// GDSII record-level vocabulary shared by the writer (io/gds) and the
// reader (io/gds_stream): record ids, the id -> name table used in error
// messages, the 8-byte excess-64 real codec of the UNITS record, and the
// rectilinear BOUNDARY-loop -> rect decomposition.
//
// A GDSII stream is a flat sequence of records: a 2-byte big-endian total
// length (header included), a 2-byte id (record type << 8 | data type), then
// the payload. The writer emits and the reader parses exactly this framing.

#include <cstdint>
#include <string>
#include <vector>

#include "geometry/polygon.h"

namespace cp::io {

/// Record ids (record type << 8 | data type) of the subset we read/write.
inline constexpr std::uint16_t kRecHeader = 0x0002;
inline constexpr std::uint16_t kRecBgnLib = 0x0102;
inline constexpr std::uint16_t kRecLibName = 0x0206;
inline constexpr std::uint16_t kRecUnits = 0x0305;
inline constexpr std::uint16_t kRecEndLib = 0x0400;
inline constexpr std::uint16_t kRecBgnStr = 0x0502;
inline constexpr std::uint16_t kRecStrName = 0x0606;
inline constexpr std::uint16_t kRecEndStr = 0x0700;
inline constexpr std::uint16_t kRecBoundary = 0x0800;
inline constexpr std::uint16_t kRecLayer = 0x0D02;
inline constexpr std::uint16_t kRecDatatype = 0x0E02;
inline constexpr std::uint16_t kRecXy = 0x1003;
inline constexpr std::uint16_t kRecEndEl = 0x1100;

/// Spec name of a record id ("HEADER", "BGNLIB", ...), or nullptr when the
/// id is not in the GDSII vocabulary. Covers the full spec table, not just
/// the subset above, so foreign files fail with a recognisable name.
const char* record_name(std::uint16_t id);

/// "BOUNDARY (0x0800)" for known ids, "unknown record 0x1234" otherwise —
/// the form every reader error message uses.
std::string describe_record(std::uint16_t id);

/// GDSII 8-byte real: sign bit, 7-bit excess-64 base-16 exponent, 56-bit
/// mantissa in [1/16, 1). Appends the 8 big-endian bytes to `out`.
void put_real8(std::string& out, double value);

/// Decode an 8-byte real at `p`.
double get_real8(const unsigned char* p);

/// Decompose a closed rectilinear XY loop into rects (even-odd fill over the
/// scan-line grid). A 5-point rectangle loop, what every writer emits for a
/// rect, is returned directly. Throws std::runtime_error on degenerate or
/// adversarially complex loops (the kMaxBoundary* guards).
std::vector<geometry::Rect> boundary_to_rects(const std::vector<geometry::Point>& loop);

}  // namespace cp::io

#pragma once
// GDSII stream-format I/O (binary, the native interchange format of layout
// tools). Pattern libraries exported here load directly into KLayout &co.
//
// The writer emits one structure per pattern, each polygon as a BOUNDARY
// element; the reader accepts the subset the writer produces plus arbitrary
// rectilinear BOUNDARYs from other tools (decomposed back into rects via the
// grid rasteriser). Numbers follow the spec: big-endian records, 8-byte
// excess-64 reals for UNITS.

#include <string>
#include <vector>

#include "geometry/polygon.h"

namespace cp::io {

struct GdsStructure {
  std::string name;
  /// Axis-aligned rectangles on `layer` (the library's patterns are
  /// rectilinear; general polygons are decomposed on read).
  std::vector<geometry::Rect> rects;
  int layer = 1;
  int datatype = 0;
};

struct GdsLibrary {
  std::string name = "CHATPATTERN";
  /// Database unit in metres (1 nm default) and user unit in database units.
  double dbu_in_meter = 1e-9;
  double dbu_per_user_unit = 1e-3;
  std::vector<GdsStructure> structures;
};

/// Write a GDSII stream file. Throws std::runtime_error on I/O failure.
void write_gds(const std::string& path, const GdsLibrary& library);

/// Read a GDSII stream file written by this library or containing
/// rectilinear BOUNDARY elements: collects every structure that
/// stream_gds_structures (io/gds_stream.h) delivers, plus the library name
/// and units. Corrupt input, unsupported record types and files over the
/// 256 MiB cap raise std::runtime_error, naming the offending record and
/// its absolute byte offset where there is one. Holds the whole library;
/// for bounded-memory ingestion use stream_gds_structures directly.
GdsLibrary read_gds(const std::string& path);

}  // namespace cp::io

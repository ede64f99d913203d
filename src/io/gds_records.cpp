#include "io/gds_records.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "geometry/bitgrid.h"
#include "geometry/extract.h"
#include "util/strings.h"

namespace cp::io {

namespace {

// Resource-exhaustion guards for the boundary decomposer: an adversarial
// loop must not allocate an enormous grid or pin the CPU. Orders of
// magnitude above anything this library writes.
constexpr std::size_t kMaxBoundaryPoints = 8192;     // points per XY loop
constexpr std::size_t kMaxBoundaryWork = 64u << 20;  // grid cells x edges

/// A closed 5-point loop whose four edges alternate horizontal and vertical,
/// each of nonzero length, is exactly one rect: its points 0 and 2 are
/// opposite corners. Anything else (a back-tracking loop, a zero-length or
/// diagonal edge, an open loop) is left to the scan-line decomposition.
bool is_rect_loop(const std::vector<geometry::Point>& loop) {
  if (loop.size() != 5 || loop[4] != loop[0]) return false;
  const bool first_horizontal = loop[0].y == loop[1].y;
  for (std::size_t i = 0; i < 4; ++i) {
    const geometry::Point& a = loop[i];
    const geometry::Point& b = loop[i + 1];
    const bool horizontal = (i % 2 == 0) == first_horizontal;
    if (horizontal ? (a.y != b.y || a.x == b.x) : (a.x != b.x || a.y == b.y)) return false;
  }
  return true;
}

}  // namespace

const char* record_name(std::uint16_t id) {
  // Keyed by the record-type byte; the data-type byte is format plumbing and
  // does not change the name (a LAYER record is a LAYER record even when a
  // corrupt file mislabels its data type).
  switch (id >> 8) {
    case 0x00: return "HEADER";
    case 0x01: return "BGNLIB";
    case 0x02: return "LIBNAME";
    case 0x03: return "UNITS";
    case 0x04: return "ENDLIB";
    case 0x05: return "BGNSTR";
    case 0x06: return "STRNAME";
    case 0x07: return "ENDSTR";
    case 0x08: return "BOUNDARY";
    case 0x09: return "PATH";
    case 0x0A: return "SREF";
    case 0x0B: return "AREF";
    case 0x0C: return "TEXT";
    case 0x0D: return "LAYER";
    case 0x0E: return "DATATYPE";
    case 0x0F: return "WIDTH";
    case 0x10: return "XY";
    case 0x11: return "ENDEL";
    case 0x12: return "SNAME";
    case 0x13: return "COLROW";
    case 0x15: return "NODE";
    case 0x16: return "TEXTTYPE";
    case 0x17: return "PRESENTATION";
    case 0x19: return "STRING";
    case 0x1A: return "STRANS";
    case 0x1B: return "MAG";
    case 0x1C: return "ANGLE";
    case 0x1F: return "REFLIBS";
    case 0x20: return "FONTS";
    case 0x21: return "PATHTYPE";
    case 0x22: return "GENERATIONS";
    case 0x23: return "ATTRTABLE";
    case 0x26: return "ELFLAGS";
    case 0x2A: return "NODETYPE";
    case 0x2B: return "PROPATTR";
    case 0x2C: return "PROPVALUE";
    case 0x2D: return "BOX";
    case 0x2E: return "BOXTYPE";
    case 0x2F: return "PLEX";
    default: return nullptr;
  }
}

std::string describe_record(std::uint16_t id) {
  const char* name = record_name(id);
  if (name != nullptr) return util::format("%s (0x%04x)", name, id);
  return util::format("unknown record 0x%04x", id);
}

void put_real8(std::string& out, double value) {
  std::uint64_t bits = 0;
  if (value != 0.0) {
    const bool negative = value < 0.0;
    double mag = std::fabs(value);
    int exponent = 64;
    while (mag >= 1.0) {
      mag /= 16.0;
      ++exponent;
    }
    while (mag < 1.0 / 16.0) {
      mag *= 16.0;
      --exponent;
    }
    const std::uint64_t mantissa = static_cast<std::uint64_t>(std::llround(mag * 72057594037927936.0));  // 2^56
    bits = (static_cast<std::uint64_t>(negative) << 63) |
           (static_cast<std::uint64_t>(exponent & 0x7f) << 56) |
           (mantissa & 0x00ffffffffffffffULL);
  }
  for (int i = 7; i >= 0; --i) out.push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
}

double get_real8(const unsigned char* p) {
  const bool negative = (p[0] & 0x80) != 0;
  const int exponent = (p[0] & 0x7f) - 64;
  std::uint64_t mantissa = 0;
  for (int i = 1; i < 8; ++i) mantissa = (mantissa << 8) | p[i];
  const double value =
      static_cast<double>(mantissa) / 72057594037927936.0 * std::pow(16.0, exponent);
  return negative ? -value : value;
}

std::vector<geometry::Rect> boundary_to_rects(const std::vector<geometry::Point>& loop) {
  if (loop.size() < 4) throw std::runtime_error("gds: degenerate boundary");
  if (loop.size() > kMaxBoundaryPoints) throw std::runtime_error("gds: boundary too complex");
  if (is_rect_loop(loop)) {
    const geometry::Point& a = loop[0];
    const geometry::Point& c = loop[2];
    return {geometry::Rect{std::min(a.x, c.x), std::min(a.y, c.y), std::max(a.x, c.x),
                           std::max(a.y, c.y)}};
  }
  std::vector<geometry::Coord> xs, ys;
  for (const auto& p : loop) {
    xs.push_back(p.x);
    ys.push_back(p.y);
  }
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());
  const int cols = static_cast<int>(xs.size()) - 1;
  const int rows = static_cast<int>(ys.size()) - 1;
  if (cols <= 0 || rows <= 0) throw std::runtime_error("gds: empty boundary");
  // The even-odd rasterisation below costs grid-cells x edges; bound it so
  // an adversarial loop with thousands of distinct coordinates cannot pin
  // the CPU (or allocate an enormous grid).
  if (static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols) * loop.size() >
      kMaxBoundaryWork) {
    throw std::runtime_error("gds: boundary too complex");
  }

  geometry::BitGrid grid(rows, cols);
  for (int r = 0; r < rows; ++r) {
    const double cy = 0.5 * (static_cast<double>(ys[r]) + static_cast<double>(ys[r + 1]));
    for (int c = 0; c < cols; ++c) {
      const double cx = 0.5 * (static_cast<double>(xs[c]) + static_cast<double>(xs[c + 1]));
      // Even-odd ray cast to +x over the loop's vertical edges.
      int crossings = 0;
      for (std::size_t i = 0; i + 1 < loop.size(); ++i) {
        const auto& a = loop[i];
        const auto& b = loop[i + 1];
        if (a.x != b.x) continue;  // horizontal edge
        const double lo = static_cast<double>(std::min(a.y, b.y));
        const double hi = static_cast<double>(std::max(a.y, b.y));
        if (cy > lo && cy < hi && static_cast<double>(a.x) > cx) ++crossings;
      }
      grid.set(r, c, crossings % 2 != 0);
    }
  }
  std::vector<geometry::Rect> rects;
  for (const geometry::Rect& cell : geometry::grid_to_cell_rects(grid.view())) {
    rects.push_back(geometry::Rect{xs[cell.x0], ys[cell.y0], xs[cell.x1], ys[cell.y1]});
  }
  return rects;
}

}  // namespace cp::io

#include "squish/squish.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>

#include "geometry/extract.h"

namespace cp::squish {

Coord SquishPattern::width_nm() const {
  Coord w = 0;
  for (Coord d : dx) w += d;
  return w;
}

Coord SquishPattern::height_nm() const {
  Coord h = 0;
  for (Coord d : dy) h += d;
  return h;
}

bool SquishPattern::well_formed() const {
  if (static_cast<int>(dx.size()) != topology.cols()) return false;
  if (static_cast<int>(dy.size()) != topology.rows()) return false;
  for (Coord d : dx) {
    if (d <= 0) return false;
  }
  for (Coord d : dy) {
    if (d <= 0) return false;
  }
  return true;
}

namespace {

/// The distinct scan lines of one axis, and the index of any edge among them.
/// A bitmap over the window span ranks edges by popcount when the span is
/// small next to the edge count (a 2048-nm window is 33 words); a wider
/// span is sorted instead. Both give the same lines and indices.
class ScanAxis {
 public:
  ScanAxis(Coord origin, Coord span, std::size_t edges) : origin_(origin) {
    if ((span >> 6) < static_cast<Coord>(8 * edges)) {
      bits_.assign(static_cast<std::size_t>(span >> 6) + 1, 0);
    } else {
      lines_.reserve(edges);
    }
  }

  /// Add an edge at `v` in [origin, origin + span].
  void add(Coord v) {
    if (bits_.empty()) {
      lines_.push_back(v);
    } else {
      const Coord off = v - origin_;
      bits_[static_cast<std::size_t>(off >> 6)] |= std::uint64_t{1} << (off & 63);
    }
  }

  /// Call once, after every add().
  void finish() {
    if (bits_.empty()) {
      std::sort(lines_.begin(), lines_.end());
      lines_.erase(std::unique(lines_.begin(), lines_.end()), lines_.end());
      return;
    }
    prefix_.resize(bits_.size());
    int count = 0;
    for (std::size_t w = 0; w < bits_.size(); ++w) {
      prefix_[w] = count;
      count += std::popcount(bits_[w]);
      for (std::uint64_t m = bits_[w]; m != 0; m &= m - 1) {
        lines_.push_back(origin_ + static_cast<Coord>(w * 64 + std::countr_zero(m)));
      }
    }
  }

  const std::vector<Coord>& lines() const { return lines_; }

  /// Index of the scan line at `v`, an added edge.
  int index(Coord v) const {
    if (bits_.empty()) {
      return static_cast<int>(std::lower_bound(lines_.begin(), lines_.end(), v) - lines_.begin());
    }
    const Coord off = v - origin_;
    const std::size_t w = static_cast<std::size_t>(off >> 6);
    return prefix_[w] + std::popcount(bits_[w] & ((std::uint64_t{1} << (off & 63)) - 1));
  }

 private:
  Coord origin_;
  std::vector<std::uint64_t> bits_;  // empty: the sorted path
  std::vector<int> prefix_;          // set bits in the words before each word
  std::vector<Coord> lines_;
};

}  // namespace

SquishPattern squish(const std::vector<Rect>& rects, const Rect& window) {
  if (window.empty()) throw std::invalid_argument("squish: empty window");

  std::vector<Rect> clipped;
  clipped.reserve(rects.size());
  for (const Rect& r : rects) {
    const Rect c = r.clipped_to(window);
    if (!c.empty()) clipped.push_back(c);
  }
  const std::size_t edges = 2 * clipped.size() + 2;
  ScanAxis xs(window.x0, window.width(), edges);
  ScanAxis ys(window.y0, window.height(), edges);
  xs.add(window.x0);
  xs.add(window.x1);
  ys.add(window.y0);
  ys.add(window.y1);
  for (const Rect& c : clipped) {
    xs.add(c.x0);
    xs.add(c.x1);
    ys.add(c.y0);
    ys.add(c.y1);
  }
  xs.finish();
  ys.finish();

  const int cols = static_cast<int>(xs.lines().size()) - 1;
  const int rows = static_cast<int>(ys.lines().size()) - 1;
  SquishPattern out;
  out.topology = Topology(rows, cols);
  out.dx.resize(cols);
  out.dy.resize(rows);
  for (int c = 0; c < cols; ++c) out.dx[c] = xs.lines()[c + 1] - xs.lines()[c];
  for (int r = 0; r < rows; ++r) out.dy[r] = ys.lines()[r + 1] - ys.lines()[r];

  for (const Rect& r : clipped) {
    out.topology.fill(ys.index(r.y0), xs.index(r.x0), ys.index(r.y1), xs.index(r.x1));
  }
  return out;
}

std::vector<Rect> unsquish(const SquishPattern& pattern) {
  if (!pattern.well_formed()) throw std::invalid_argument("unsquish: malformed pattern");
  const int rows = pattern.topology.rows();
  const int cols = pattern.topology.cols();
  std::vector<Coord> px(cols + 1, 0);
  std::vector<Coord> py(rows + 1, 0);
  for (int c = 0; c < cols; ++c) px[c + 1] = px[c] + pattern.dx[c];
  for (int r = 0; r < rows; ++r) py[r + 1] = py[r] + pattern.dy[r];

  std::vector<Rect> out;
  for (const Rect& cell_rect : geometry::grid_to_cell_rects(pattern.topology.view())) {
    out.push_back(Rect{px[cell_rect.x0], py[cell_rect.y0], px[cell_rect.x1], py[cell_rect.y1]});
  }
  return out;
}

DeltaVec uniform_deltas(int n, Coord total_nm) {
  if (n <= 0) return {};
  DeltaVec d(static_cast<std::size_t>(n));
  const Coord base = std::max<Coord>(1, total_nm / n);
  Coord remaining = total_nm;
  for (int i = 0; i < n; ++i) {
    Coord v = (i + 1 == n) ? remaining : base;
    if (v < 1) v = 1;
    d[static_cast<std::size_t>(i)] = v;
    remaining -= v;
  }
  return d;
}

}  // namespace cp::squish

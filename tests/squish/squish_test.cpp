#include "squish/squish.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "util/rng.h"

namespace cp::squish {
namespace {

using geometry::Rect;

/// Canonical form of a rect set for comparison (sorted).
std::vector<Rect> canon(std::vector<Rect> rects) {
  std::sort(rects.begin(), rects.end(), [](const Rect& a, const Rect& b) {
    return std::tie(a.y0, a.x0, a.y1, a.x1) < std::tie(b.y0, b.x0, b.y1, b.x1);
  });
  return rects;
}

TEST(SquishTest, SingleRect) {
  const Rect window{0, 0, 100, 100};
  const SquishPattern p = squish({{20, 30, 60, 70}}, window);
  // Scan lines: x {0,20,60,100}, y {0,30,70,100} -> 3x3 grid.
  EXPECT_EQ(p.topology.rows(), 3);
  EXPECT_EQ(p.topology.cols(), 3);
  EXPECT_EQ(p.dx, (DeltaVec{20, 40, 40}));
  EXPECT_EQ(p.dy, (DeltaVec{30, 40, 30}));
  EXPECT_EQ(p.topology.at(1, 1), 1);
  EXPECT_EQ(p.topology.popcount(), 1u);
  EXPECT_TRUE(p.well_formed());
}

TEST(SquishTest, EmptyWindowThrows) {
  EXPECT_THROW(squish({}, Rect{0, 0, 0, 10}), std::invalid_argument);
}

TEST(SquishTest, NoRectsGivesSingleEmptyCell) {
  const SquishPattern p = squish({}, Rect{0, 0, 50, 40});
  EXPECT_EQ(p.topology.rows(), 1);
  EXPECT_EQ(p.topology.cols(), 1);
  EXPECT_EQ(p.topology.popcount(), 0u);
  EXPECT_EQ(p.width_nm(), 50);
  EXPECT_EQ(p.height_nm(), 40);
}

TEST(SquishTest, ClipsRectsToWindow) {
  const SquishPattern p = squish({{-10, -10, 30, 30}}, Rect{0, 0, 100, 100});
  // Clipped rect [0,30)x[0,30): scan lines x {0,30,100}.
  EXPECT_EQ(p.topology.cols(), 2);
  EXPECT_EQ(p.topology.at(0, 0), 1);
  EXPECT_EQ(p.topology.at(0, 1), 0);
}

TEST(SquishTest, OverlappingRectsUnion) {
  const SquishPattern p = squish({{0, 0, 60, 40}, {30, 0, 100, 40}}, Rect{0, 0, 100, 40});
  // The union covers the full window: all cells set.
  EXPECT_EQ(p.topology.popcount(), p.topology.size());
}

TEST(SquishTest, UnsquishReconstructsGeometry) {
  const Rect window{0, 0, 200, 150};
  const std::vector<Rect> rects{{20, 30, 60, 70}, {100, 30, 140, 130}};
  const SquishPattern p = squish(rects, window);
  const auto rebuilt = canon(unsquish(p));
  EXPECT_EQ(rebuilt, canon(rects));
}

TEST(SquishTest, SquishUnsquishRoundTripOnRandomPatterns) {
  util::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    // Non-overlapping rects: at most one per coarse 100x100 cell, inset so
    // neighbours never touch.
    std::vector<Rect> rects;
    std::set<std::pair<int, int>> used;
    for (int i = 0; i < 6; ++i) {
      const int cx = rng.uniform_int(0, 7);
      const int cy = rng.uniform_int(0, 7);
      if (!used.insert({cx, cy}).second) continue;
      const geometry::Coord w = rng.uniform_int(1, 2) * 40;
      const geometry::Coord h = rng.uniform_int(1, 2) * 40;
      rects.push_back(
          Rect{cx * 100 + 10, cy * 100 + 10, cx * 100 + 10 + w, cy * 100 + 10 + h});
    }
    const Rect window{0, 0, 800, 800};
    const SquishPattern p = squish(rects, window);
    // The reconstruction must cover exactly the same area.
    geometry::Coord area_in = 0;
    for (const Rect& r : rects) area_in += r.clipped_to(window).area();
    geometry::Coord area_out = 0;
    for (const Rect& r : unsquish(p)) area_out += r.area();
    EXPECT_EQ(area_in, area_out);
    // And squishing the reconstruction reproduces the same pattern.
    const SquishPattern p2 = squish(unsquish(p), window);
    EXPECT_EQ(p2.topology, p.topology);
    EXPECT_EQ(p2.dx, p.dx);
    EXPECT_EQ(p2.dy, p.dy);
  }
}

TEST(SquishTest, NarrowAndWideWindowsAgree) {
  // A narrow window ranks its scan lines with a bitmap over the span, a
  // wide one by sorting. Scaling a layout leaves its topology unchanged, so
  // both must produce the same grid, with deltas scaled.
  constexpr geometry::Coord kScale = 100000;
  util::Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    const geometry::Coord ox = rng.uniform_int(-3000, 3000);
    const geometry::Coord oy = rng.uniform_int(-3000, 3000);
    const geometry::Coord side = rng.uniform_int(1, 4) * 64 + rng.uniform_int(0, 1);
    const Rect window{ox, oy, ox + side, oy + side};
    std::vector<Rect> rects;
    const int n = rng.uniform_int(0, 40);
    for (int i = 0; i < n; ++i) {
      // Some rects overhang the window, so clipped edges land on its border.
      const geometry::Coord x = ox + rng.uniform_int(-10, static_cast<int>(side));
      const geometry::Coord y = oy + rng.uniform_int(-10, static_cast<int>(side));
      rects.push_back({x, y, x + rng.uniform_int(1, 40), y + rng.uniform_int(1, 40)});
    }
    std::vector<Rect> scaled;
    for (const Rect& r : rects) {
      scaled.push_back({r.x0 * kScale, r.y0 * kScale, r.x1 * kScale, r.y1 * kScale});
    }
    const SquishPattern narrow = squish(rects, window);
    const SquishPattern wide = squish(scaled, {window.x0 * kScale, window.y0 * kScale,
                                               window.x1 * kScale, window.y1 * kScale});
    EXPECT_EQ(narrow.topology, wide.topology) << "trial " << trial;
    ASSERT_EQ(narrow.dx.size(), wide.dx.size());
    ASSERT_EQ(narrow.dy.size(), wide.dy.size());
    for (std::size_t c = 0; c < narrow.dx.size(); ++c) EXPECT_EQ(narrow.dx[c] * kScale, wide.dx[c]);
    for (std::size_t r = 0; r < narrow.dy.size(); ++r) EXPECT_EQ(narrow.dy[r] * kScale, wide.dy[r]);
    // A cell is filled iff some rect covers its lower-left corner.
    geometry::Coord y = oy;
    for (int r = 0; r < narrow.topology.rows(); y += narrow.dy[r++]) {
      geometry::Coord x = ox;
      for (int c = 0; c < narrow.topology.cols(); x += narrow.dx[c++]) {
        const bool covered = std::any_of(rects.begin(), rects.end(), [&](const Rect& rect) {
          return rect.contains({x, y});
        });
        EXPECT_EQ(narrow.topology.at(r, c), covered ? 1 : 0) << "trial " << trial;
      }
    }
  }
}

TEST(SquishTest, WellFormedRejectsBadDeltas) {
  SquishPattern p;
  p.topology = Topology(1, 2);
  p.dx = {10, 0};  // zero delta
  p.dy = {10};
  EXPECT_FALSE(p.well_formed());
  p.dx = {10};  // wrong size
  EXPECT_FALSE(p.well_formed());
}

TEST(SquishTest, UnsquishRejectsMalformed) {
  SquishPattern p;
  p.topology = Topology(1, 2);
  p.dx = {10};
  p.dy = {10};
  EXPECT_THROW(unsquish(p), std::invalid_argument);
}

TEST(SquishTest, UniformDeltasSumAndPositivity) {
  const DeltaVec d = uniform_deltas(7, 100);
  ASSERT_EQ(d.size(), 7u);
  geometry::Coord sum = 0;
  for (geometry::Coord v : d) {
    EXPECT_GE(v, 1);
    sum += v;
  }
  EXPECT_EQ(sum, 100);
  EXPECT_TRUE(uniform_deltas(0, 100).empty());
}

}  // namespace
}  // namespace cp::squish

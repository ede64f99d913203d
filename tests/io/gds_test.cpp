#include "io/gds.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>

#include "io/gds_records.h"
#include "squish/squish.h"
#include "util/rng.h"

namespace cp::io {
namespace {

using geometry::Rect;

std::string temp_path(const char* name) { return ::testing::TempDir() + "/" + name; }

std::vector<Rect> canon(std::vector<Rect> rects) {
  std::sort(rects.begin(), rects.end(), [](const Rect& a, const Rect& b) {
    return std::tie(a.y0, a.x0, a.y1, a.x1) < std::tie(b.y0, b.x0, b.y1, b.x1);
  });
  return rects;
}

TEST(GdsTest, WriteReadRoundTrip) {
  GdsLibrary lib;
  lib.name = "TESTLIB";
  GdsStructure s1;
  s1.name = "PATTERN_0";
  s1.layer = 7;
  s1.datatype = 2;
  s1.rects = {{0, 0, 100, 50}, {200, 30, 260, 400}};
  GdsStructure s2;
  s2.name = "PATTERN_1";
  s2.rects = {{-40, -40, 0, 0}};
  lib.structures = {s1, s2};

  const std::string path = temp_path("roundtrip.gds");
  write_gds(path, lib);
  const GdsLibrary back = read_gds(path);
  EXPECT_EQ(back.name, "TESTLIB");
  ASSERT_EQ(back.structures.size(), 2u);
  EXPECT_EQ(back.structures[0].name, "PATTERN_0");
  EXPECT_EQ(back.structures[0].layer, 7);
  EXPECT_EQ(back.structures[0].datatype, 2);
  EXPECT_EQ(canon(back.structures[0].rects), canon(s1.rects));
  EXPECT_EQ(canon(back.structures[1].rects), canon(s2.rects));
}

TEST(GdsTest, UnitsSurviveExcess64Encoding) {
  GdsLibrary lib;
  const std::string path = temp_path("units.gds");
  write_gds(path, lib);
  const GdsLibrary back = read_gds(path);
  EXPECT_NEAR(back.dbu_in_meter, 1e-9, 1e-18);
  EXPECT_NEAR(back.dbu_per_user_unit, 1e-3, 1e-12);
}

TEST(GdsTest, DeterministicBytes) {
  GdsLibrary lib;
  lib.structures.push_back(GdsStructure{"A", {{0, 0, 10, 10}}, 1, 0});
  const std::string p1 = temp_path("det1.gds");
  const std::string p2 = temp_path("det2.gds");
  write_gds(p1, lib);
  write_gds(p2, lib);
  std::ifstream a(p1, std::ios::binary), b(p2, std::ios::binary);
  const std::string sa((std::istreambuf_iterator<char>(a)), std::istreambuf_iterator<char>());
  const std::string sb((std::istreambuf_iterator<char>(b)), std::istreambuf_iterator<char>());
  EXPECT_EQ(sa, sb);
  EXPECT_GT(sa.size(), 60u);
}

TEST(GdsTest, RectilinearLShapeBoundaryDecomposed) {
  // Hand-craft a library whose BOUNDARY is an L-shaped loop (as another tool
  // would write it) by monkey-patching: write a rect library, then read a
  // manually assembled L via the public API using a loop payload.
  // Simpler: the writer emits rects; to test the loop decomposition, write
  // an L as two rects, read back, re-write *as one polygon* is not exposed —
  // so test loop_to_rects indirectly by checking area equivalence of a
  // merged read. Write two touching rects forming an L:
  GdsLibrary lib;
  GdsStructure s;
  s.name = "L";
  s.rects = {{0, 0, 30, 10}, {0, 10, 10, 30}};
  lib.structures = {s};
  const std::string path = temp_path("lshape.gds");
  write_gds(path, lib);
  const GdsLibrary back = read_gds(path);
  geometry::Coord area = 0;
  for (const Rect& r : back.structures[0].rects) area += r.area();
  EXPECT_EQ(area, 300 + 200);
}

using geometry::Point;

TEST(BoundaryToRectsTest, RectLoopFromEveryCornerAndWinding) {
  const Rect rect{-5, 10, 20, 40};
  const Point corners[4] = {{-5, 10}, {20, 10}, {20, 40}, {-5, 40}};  // counter-clockwise
  for (int start = 0; start < 4; ++start) {
    for (const int step : {1, 3}) {  // 3 = one back, i.e. clockwise
      std::vector<Point> loop;
      for (int i = 0; i <= 4; ++i) loop.push_back(corners[(start + step * i) % 4]);
      EXPECT_EQ(boundary_to_rects(loop), std::vector<Rect>{rect})
          << "start " << start << " step " << step;
    }
  }
}

TEST(BoundaryToRectsTest, NonRectLoopsKeepTheScanLineResult) {
  // Only axis-parallel edges, but it back-tracks: even-odd reads it as empty.
  EXPECT_EQ(boundary_to_rects({{0, 0}, {2, 0}, {2, 1}, {2, 0}, {0, 0}}), std::vector<Rect>{});
  // Zero width and zero height: no scan-line cell at all.
  EXPECT_THROW(boundary_to_rects({{3, 0}, {3, 0}, {3, 4}, {3, 4}, {3, 0}}), std::runtime_error);
  EXPECT_THROW(boundary_to_rects({{0, 7}, {5, 7}, {5, 7}, {0, 7}, {0, 7}}), std::runtime_error);
  // One diagonal edge: the ray cast counts the vertical edges only.
  EXPECT_EQ(boundary_to_rects({{0, 0}, {4, 0}, {4, 4}, {2, 4}, {0, 0}}),
            (std::vector<Rect>{{0, 0, 4, 4}}));
  // An L-shape goes down the scan-line path too.
  EXPECT_EQ(canon(boundary_to_rects({{0, 0}, {30, 0}, {30, 10}, {10, 10}, {10, 30}, {0, 30},
                                     {0, 0}})),
            canon({{0, 0, 30, 10}, {0, 10, 10, 30}}));
  EXPECT_THROW(boundary_to_rects({{0, 0}, {1, 0}, {0, 0}}), std::runtime_error);
}

TEST(GdsTest, ReadRejectsGarbage) {
  const std::string path = temp_path("garbage.gds");
  std::ofstream(path) << "this is not a gds file at all, definitely";
  EXPECT_THROW(read_gds(path), std::runtime_error);
  EXPECT_THROW(read_gds(temp_path("missing-file.gds")), std::runtime_error);
}

TEST(GdsTest, TruncatedFileRejected) {
  GdsLibrary lib;
  lib.structures.push_back(GdsStructure{"A", {{0, 0, 10, 10}}, 1, 0});
  const std::string path = temp_path("trunc.gds");
  write_gds(path, lib);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::ofstream(temp_path("trunc2.gds"), std::ios::binary)
      << bytes.substr(0, bytes.size() - 6);
  EXPECT_THROW(read_gds(temp_path("trunc2.gds")), std::runtime_error);
}

TEST(GdsTest, ManyPatternsRoundTrip) {
  util::Rng rng(4);
  GdsLibrary lib;
  for (int i = 0; i < 20; ++i) {
    GdsStructure s;
    s.name = "P" + std::to_string(i);
    for (int j = 0; j < 5; ++j) {
      const geometry::Coord x = rng.uniform_int(0, 50) * 10;
      const geometry::Coord y = rng.uniform_int(0, 50) * 10;
      s.rects.push_back(Rect{x, y, x + 40, y + 80});
    }
    lib.structures.push_back(std::move(s));
  }
  const std::string path = temp_path("many.gds");
  write_gds(path, lib);
  const GdsLibrary back = read_gds(path);
  ASSERT_EQ(back.structures.size(), 20u);
  geometry::Coord area_in = 0, area_out = 0;
  for (const auto& s : lib.structures) {
    for (const auto& r : s.rects) area_in += r.area();
  }
  for (const auto& s : back.structures) {
    for (const auto& r : s.rects) area_out += r.area();
  }
  // Overlapping rects in a structure merge on read; the union area is
  // bounded by the sum.
  EXPECT_LE(area_out, area_in);
  EXPECT_GT(area_out, 0);
}

}  // namespace
}  // namespace cp::io

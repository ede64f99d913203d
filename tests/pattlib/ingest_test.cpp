// Windowing pass + streaming ingestion (pattlib/window.h, pattlib/ingest.h):
// grid arithmetic, density prefiltering, overlapping strides, and the
// GDS -> windows -> store pipeline with cross-structure dedup.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "io/gds.h"
#include "pattlib/ingest.h"
#include "util/fs.h"
#include "util/rng.h"

namespace cp::pattlib {
namespace {

using geometry::Coord;
using geometry::Rect;

std::string temp_path(const std::string& name) { return ::testing::TempDir() + "/" + name; }

TEST(WindowTest, NonOverlappingTilingCoversTheBoundingBox) {
  // Four separated blobs, one per 1000-nm window corner of a 2x2 grid.
  std::vector<Rect> rects;
  for (const Coord base_x : {Coord{0}, Coord{1000}}) {
    for (const Coord base_y : {Coord{0}, Coord{1000}}) {
      rects.push_back({base_x + 100, base_y + 100, base_x + 400, base_y + 300});
    }
  }
  WindowConfig cfg;
  cfg.window_nm = 1000;
  std::vector<std::pair<Coord, Coord>> origins;
  const WindowStats stats = windows_over(
      rects, cfg, [&](squish::SquishPattern&& p, Coord wx, Coord wy) {
        EXPECT_TRUE(p.well_formed());
        origins.emplace_back(wx, wy);
      });
  EXPECT_EQ(stats.seen, 4);
  EXPECT_EQ(stats.kept, 4);
  ASSERT_EQ(origins.size(), 4u);
  // Deterministic row-major order, anchored at the bbox origin (100, 100).
  EXPECT_EQ(origins[0], (std::pair<Coord, Coord>{100, 100}));
  EXPECT_EQ(origins[1], (std::pair<Coord, Coord>{1100, 100}));
  EXPECT_EQ(origins[2], (std::pair<Coord, Coord>{100, 1100}));
  EXPECT_EQ(origins[3], (std::pair<Coord, Coord>{1100, 1100}));
}

TEST(WindowTest, SparseLayoutSkipsEmptyWindows) {
  // Two blobs 100 windows apart: seen counts the whole grid, kept only 2.
  const std::vector<Rect> rects = {{0, 0, 500, 500}, {100000, 0, 100500, 500}};
  WindowConfig cfg;
  cfg.window_nm = 1000;
  long long delivered = 0;
  const WindowStats stats =
      windows_over(rects, cfg, [&](squish::SquishPattern&&, Coord, Coord) { ++delivered; });
  EXPECT_EQ(stats.seen, 101);
  EXPECT_EQ(stats.kept, 2);
  EXPECT_EQ(delivered, 2);
}

TEST(WindowTest, DensityPrefilter) {
  const std::vector<Rect> rects = {{0, 0, 1000, 1000},        // density 1.0 window
                                   {2000, 0, 2100, 100}};     // density 0.01 window
  WindowConfig cfg;
  cfg.window_nm = 1000;
  cfg.min_density = 0.5;
  long long kept = 0;
  windows_over(rects, cfg, [&](squish::SquishPattern&&, Coord wx, Coord) {
    EXPECT_EQ(wx, 0);
    ++kept;
  });
  EXPECT_EQ(kept, 1);
  cfg.min_density = 0.0;
  cfg.max_density = 0.5;
  kept = 0;
  windows_over(rects, cfg, [&](squish::SquishPattern&&, Coord wx, Coord) {
    EXPECT_EQ(wx, 2000);
    ++kept;
  });
  EXPECT_EQ(kept, 1);
}

TEST(WindowTest, OverlappingStrideRevisitsGeometry) {
  const std::vector<Rect> rects = {{0, 0, 1800, 200}};
  WindowConfig cfg;
  cfg.window_nm = 1000;
  cfg.stride_nm = 500;
  long long kept = 0;
  windows_over(rects, cfg, [&](squish::SquishPattern&&, Coord, Coord) { ++kept; });
  // Strided grid over the 1800-nm bbox: windows at x = 0, 500, 1000 (the
  // last reaches past the far edge), every one intersecting the bar.
  EXPECT_EQ(kept, 3);
}

TEST(WindowTest, EnumeratesEmptyWindowsWhenAsked) {
  const std::vector<Rect> rects = {{0, 0, 100, 100}, {2500, 2500, 2600, 2600}};
  WindowConfig cfg;
  cfg.window_nm = 1000;
  cfg.skip_empty = false;
  long long delivered = 0;
  const WindowStats stats =
      windows_over(rects, cfg, [&](squish::SquishPattern&&, Coord, Coord) { ++delivered; });
  EXPECT_EQ(stats.seen, 9);
  EXPECT_EQ(delivered, 9);
  EXPECT_EQ(stats.kept, 9);
}

TEST(WindowTest, BadConfigsThrow) {
  const std::vector<Rect> rects = {{0, 0, 10, 10}};
  WindowConfig cfg;
  cfg.window_nm = 0;
  EXPECT_THROW(windows_over(rects, cfg, [](squish::SquishPattern&&, Coord, Coord) {}),
               std::invalid_argument);
  cfg.window_nm = 100;
  cfg.stride_nm = -1;
  EXPECT_THROW(windows_over(rects, cfg, [](squish::SquishPattern&&, Coord, Coord) {}),
               std::invalid_argument);
  // Empty input is a no-op, not an error.
  cfg.stride_nm = 0;
  const WindowStats stats =
      windows_over({}, cfg, [](squish::SquishPattern&&, Coord, Coord) { FAIL(); });
  EXPECT_EQ(stats.seen, 0);
}

/// Fixture mirroring tools/chatpattern_lib.cpp: `structures` structures
/// carrying `motifs` distinct motifs (bar stacks of different heights),
/// each motif placed twice per structure.
std::string write_fixture(const std::string& name, int structures, int motifs) {
  io::GdsLibrary lib;
  lib.name = "INGEST_FIXTURE";
  for (int s = 0; s < structures; ++s) {
    io::GdsStructure str;
    str.name = "CELL" + std::to_string(s);
    str.layer = 1 + (s % 2);
    const int bars = 2 + (s % motifs);
    for (const Coord base : {Coord{0}, Coord{4096}}) {
      for (int j = 0; j < bars; ++j) {
        const Coord y0 = 128 + static_cast<Coord>(j) * 256;
        str.rects.push_back({base, y0, base + 1024, y0 + 128});
      }
    }
    lib.structures.push_back(std::move(str));
  }
  const std::string path = temp_path(name);
  io::write_gds(path, lib);
  return path;
}

TEST(IngestTest, FixtureDedupAcrossStructuresAndRuns) {
  const std::string path = write_fixture("ingest_dedup.gds", 6, 3);
  PatternStore store;
  IngestConfig cfg;
  cfg.style_tag = "fixture";
  const IngestStats st = ingest_gds(path, store, cfg);
  EXPECT_EQ(st.structures, 6);
  EXPECT_EQ(st.windows_kept, 12);  // 2 populated windows per structure
  EXPECT_EQ(st.added, 3);          // 3 distinct motifs
  EXPECT_EQ(st.deduped, 9);
  EXPECT_GT(st.bytes_streamed, 0u);
  EXPECT_EQ(store.size(), 3u);
  const StoredPattern& e = store.at(0);
  EXPECT_EQ(e.meta.source, path);
  EXPECT_EQ(e.meta.structure, "CELL0");
  EXPECT_EQ(e.meta.style_tag, "fixture");
  EXPECT_EQ(e.meta.window_x, 0);

  // Re-ingesting the same file adds nothing.
  const IngestStats again = ingest_gds(path, store, cfg);
  EXPECT_EQ(again.added, 0);
  EXPECT_EQ(again.deduped, 12);
  EXPECT_EQ(store.size(), 3u);
  std::remove(path.c_str());
}

TEST(IngestTest, LayerFilterAndWindowCap) {
  const std::string path = write_fixture("ingest_filter.gds", 6, 3);
  {
    PatternStore store;
    IngestConfig cfg;
    cfg.layer = 2;  // structures 1, 3, 5 only
    const IngestStats st = ingest_gds(path, store, cfg);
    EXPECT_EQ(st.structures, 6);
    EXPECT_EQ(st.windows_kept, 6);
    for (std::size_t i = 0; i < store.size(); ++i) EXPECT_EQ(store.at(i).meta.layer, 2);
  }
  {
    PatternStore store;
    IngestConfig cfg;
    cfg.max_windows = 3;
    const IngestStats st = ingest_gds(path, store, cfg);
    EXPECT_EQ(st.windows_kept, 3);
    EXPECT_EQ(st.added + st.deduped, 3);
  }
  std::remove(path.c_str());
}

/// The fixed library behind the pinned-store test. Its windows cover what
/// the ingest kernels branch on:
///  - "GRID": perfbench-shaped 256-nm rect grid; some rects are written
///    from other start corners and windings (swapped x or y);
///  - "VBARS" / "HBARS": overlapping full-span bars, so windows have more
///    than 64 scan lines and redundant ones that dedup drops;
///  - "GRID_COPY": GRID shifted by a window multiple, so every window dedups.
io::GdsLibrary pinned_library() {
  io::GdsLibrary lib;
  lib.name = "PINNED";
  util::Rng rng(20240601);
  io::GdsStructure grid;
  grid.name = "GRID";
  for (int i = 0; i < 256; ++i) {
    const Coord x = (i % 16) * 256;
    const Coord y = (i / 16) * 256;
    const Coord w = 96 + static_cast<Coord>(rng.next_u64() % 96);
    const Coord h = 96 + static_cast<Coord>(rng.next_u64() % 96);
    Rect r{x, y, x + w, y + h};
    if (i % 3 == 1) std::swap(r.x0, r.x1);
    if (i % 5 == 2) std::swap(r.y0, r.y1);
    grid.rects.push_back(r);
  }
  io::GdsStructure vbars;
  vbars.name = "VBARS";
  vbars.layer = 2;
  io::GdsStructure hbars;
  hbars.name = "HBARS";
  const Coord spans[3][2] = {{0, 2048}, {512, 1536}, {1024, 2048}};
  for (int i = 0; i < 160; ++i) {
    const Coord a = static_cast<Coord>(rng.next_u64() % 4000);
    const Coord w = 4 + static_cast<Coord>(rng.next_u64() % 30);
    const Coord* s = spans[rng.next_u64() % 3];
    vbars.rects.push_back({a, s[0], a + w, s[1]});
    hbars.rects.push_back({s[0], a, s[1], a + w});
  }
  io::GdsStructure copy = grid;
  copy.name = "GRID_COPY";
  for (Rect& r : copy.rects) r = {r.x0 + 8192, r.y0 + 2048, r.x1 + 8192, r.y1 + 2048};
  lib.structures = {grid, vbars, hbars, copy};
  return lib;
}

TEST(IngestTest, PinnedStoreBytes) {
  // The CPPL bytes an ingest writes are a format: this pins them, so a
  // rewrite of the windowing, dedup or record codec cannot move one. The
  // GDS path is recorded in every record, so ingest a relative one.
  const std::filesystem::path dir = temp_path("pinned_ingest");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::filesystem::path cwd = std::filesystem::current_path();
  std::filesystem::current_path(dir);
  io::write_gds("pinned.gds", pinned_library());
  IngestStats st;
  {
    PatternStore store("pinned.cppl");
    st = ingest_gds("pinned.gds", store, IngestConfig{});
  }
  const std::string bytes = util::read_file("pinned.cppl");
  PatternStore reopened("pinned.cppl");
  std::filesystem::current_path(cwd);
  std::filesystem::remove_all(dir);

  EXPECT_EQ(st.windows_kept, 12);
  EXPECT_EQ(st.added, 8);
  EXPECT_EQ(st.deduped, 4);
  EXPECT_EQ(bytes.size(), 8413u);
  EXPECT_EQ(util::crc32(bytes), 2183767584u);
  // Replay recomputes the canonical hash; the metric cache is read back.
  struct Pinned {
    std::uint64_t hash;
    int complexity_x, complexity_y;
    double density;
    int rows, cols;
  };
  const Pinned pinned[] = {
      {0xe40c232ae293b919ULL, 71, 72, 0.26291079812206575, 72, 71},
      {0x703927355f6d76aaULL, 70, 72, 0.26250000000000001, 72, 70},
      {0xc5c6d9c11def0a1eULL, 69, 72, 0.25241545893719808, 72, 69},
      {0x635ed0aaa645c045ULL, 66, 71, 0.24669227486128895, 71, 66},
      {0x28deb260ff2e14aaULL, 115, 4, 0.56857142857142862, 4, 175},
      {0x512a355bf4130bf9ULL, 90, 4, 0.49427480916030536, 4, 131},
      {0x2148387150d2284bULL, 4, 115, 0.56857142857142862, 175, 4},
      {0x9e2b93ce94b30c63ULL, 4, 90, 0.49427480916030536, 131, 4},
  };
  ASSERT_EQ(reopened.size(), std::size(pinned));
  for (std::uint64_t id = 0; id < reopened.size(); ++id) {
    const StoredPattern& e = reopened.at(id);
    const Pinned& p = pinned[id];
    EXPECT_EQ(e.topology_hash, p.hash) << "record " << id;
    EXPECT_EQ(e.meta.complexity_x, p.complexity_x) << "record " << id;
    EXPECT_EQ(e.meta.complexity_y, p.complexity_y) << "record " << id;
    EXPECT_DOUBLE_EQ(e.meta.density, p.density) << "record " << id;
    EXPECT_EQ(e.pattern.topology.rows(), p.rows) << "record " << id;
    EXPECT_EQ(e.pattern.topology.cols(), p.cols) << "record " << id;
  }
}

TEST(IngestTest, CorruptGdsFailsCleanlyStorePreserved) {
  const std::string path = write_fixture("ingest_corrupt.gds", 4, 2);
  std::string data;
  {
    data = util::read_file(path);
    data.resize(data.size() / 2);  // truncate mid-stream
    util::atomic_write_file(path, data);
  }
  PatternStore store;
  IngestConfig cfg;
  EXPECT_THROW(ingest_gds(path, store, cfg), std::runtime_error);
  // Structures delivered before the corruption point are kept.
  EXPECT_FALSE(store.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cp::pattlib

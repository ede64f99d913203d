#include "squish/topology.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace cp::squish {
namespace {

TEST(TopologyTest, ConstructionAndFill) {
  Topology t(3, 5);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 5);
  EXPECT_EQ(t.size(), 15u);
  EXPECT_EQ(t.popcount(), 0u);
  Topology full(2, 2, 1);
  EXPECT_EQ(full.popcount(), 4u);
  EXPECT_DOUBLE_EQ(full.density(), 1.0);
}

TEST(TopologyTest, SetNormalizesToBinary) {
  Topology t(1, 1);
  t.set(0, 0, 7);
  EXPECT_EQ(t.at(0, 0), 1);
}

TEST(TopologyTest, WindowExtraction) {
  Topology t(4, 4);
  t.set(1, 2, 1);
  const Topology w = t.window(1, 1, 3, 4);
  EXPECT_EQ(w.rows(), 2);
  EXPECT_EQ(w.cols(), 3);
  EXPECT_EQ(w.at(0, 1), 1);
  EXPECT_EQ(w.popcount(), 1u);
}

TEST(TopologyTest, WindowBoundsChecked) {
  Topology t(4, 4);
  EXPECT_THROW(t.window(0, 0, 5, 4), std::out_of_range);
  EXPECT_THROW(t.window(-1, 0, 4, 4), std::out_of_range);
  EXPECT_THROW(t.window(2, 2, 1, 4), std::out_of_range);
}

TEST(TopologyTest, PasteClipsAtBorder) {
  Topology t(4, 4);
  Topology tile(2, 2, 1);
  t.paste(tile, 3, 3);  // only 1 cell fits
  EXPECT_EQ(t.popcount(), 1u);
  EXPECT_EQ(t.at(3, 3), 1);
  t.paste(tile, -1, -1);  // only bottom-right cell of tile lands
  EXPECT_EQ(t.at(0, 0), 1);
}

TEST(TopologyTest, TransformsAreInvolutions) {
  Topology t(3, 4);
  t.set(0, 1, 1);
  t.set(2, 3, 1);
  EXPECT_EQ(t.flipped_horizontal().flipped_horizontal(), t);
  EXPECT_EQ(t.flipped_vertical().flipped_vertical(), t);
  EXPECT_EQ(t.transposed().transposed(), t);
  EXPECT_EQ(t.transposed().rows(), 4);
  EXPECT_EQ(t.transposed().at(1, 0), 1);
}

TEST(TopologyTest, DeduplicatedRemovesAdjacentDuplicates) {
  // Columns: A A B B A -> A B A; rows: X X -> X.
  Topology t(2, 5);
  for (int r = 0; r < 2; ++r) {
    t.set(r, 2, 1);
    t.set(r, 3, 1);
  }
  const Topology d = t.deduplicated();
  EXPECT_EQ(d.rows(), 1);
  EXPECT_EQ(d.cols(), 3);
  EXPECT_EQ(d.at(0, 0), 0);
  EXPECT_EQ(d.at(0, 1), 1);
  EXPECT_EQ(d.at(0, 2), 0);
}

TEST(TopologyTest, ComplexityOfUniformIsOne) {
  Topology t(8, 8, 1);
  const auto [cx, cy] = t.complexity();
  EXPECT_EQ(cx, 1);
  EXPECT_EQ(cy, 1);
}

TEST(TopologyTest, ComplexityCountsScanLineStructure) {
  // Vertical stripes of width 2: 4 distinct column groups on 8 cols.
  Topology t(4, 8);
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 8; ++c) t.set(r, c, (c / 2) % 2);
  }
  const auto [cx, cy] = t.complexity();
  EXPECT_EQ(cx, 4);
  EXPECT_EQ(cy, 1);
}

TEST(TopologyTest, AsciiArt) {
  Topology t(2, 2);
  t.set(0, 0, 1);
  EXPECT_EQ(t.to_ascii(), "#.\n..\n");
}

TEST(TopologyTest, PbmFormat) {
  Topology t(1, 2);
  t.set(0, 1, 1);
  EXPECT_EQ(t.to_pbm(), "P1\n2 1\n0 1\n");
}

TEST(TopologyTest, DownsampleMajority) {
  Topology t(4, 4);
  // Top-left 2x2 block: 3 ones of 4 -> 1. Others sparse -> 0.
  t.set(0, 0, 1);
  t.set(0, 1, 1);
  t.set(1, 0, 1);
  t.set(2, 3, 1);
  const Topology d = downsample_majority(t, 2);
  EXPECT_EQ(d.rows(), 2);
  EXPECT_EQ(d.at(0, 0), 1);
  EXPECT_EQ(d.at(0, 1), 0);
  EXPECT_EQ(d.at(1, 1), 0);
}

TEST(TopologyTest, DownsampleRequiresDivisibility) {
  Topology t(5, 4);
  EXPECT_THROW(downsample_majority(t, 2), std::invalid_argument);
}

TEST(TopologyTest, UpsampleThenDownsampleIsIdentity) {
  Topology t(3, 3);
  t.set(0, 0, 1);
  t.set(1, 2, 1);
  t.set(2, 1, 1);
  EXPECT_EQ(downsample_majority(upsample_nearest(t, 4), 4), t);
}

TEST(TopologyTest, AssignWhereMatchesScalarLoop) {
  // 70 and 130 columns end in a partial tail word; 64 fills its last word.
  for (const int cols : {1, 5, 64, 70, 130}) {
    util::Rng rng(static_cast<std::uint64_t>(cols));
    auto random_grid = [&](double p) {
      Topology t(7, cols);
      for (int r = 0; r < t.rows(); ++r) {
        for (int c = 0; c < cols; ++c) t.set(r, c, rng.bernoulli(p) ? 1 : 0);
      }
      return t;
    };
    const Topology dst = random_grid(0.5), mask = random_grid(0.3), src = random_grid(0.5);
    Topology want = dst;
    for (int r = 0; r < want.rows(); ++r) {
      for (int c = 0; c < cols; ++c) {
        if (mask.at(r, c)) want.set(r, c, src.at(r, c));
      }
    }
    Topology got = dst;
    got.assign_where(mask, src);
    // operator== compares whole words, so this also checks the zero tail.
    EXPECT_EQ(got, want) << "cols=" << cols;
  }
  Topology t(3, 4);
  EXPECT_THROW(t.assign_where(Topology(3, 5), Topology(3, 4)), std::invalid_argument);
  EXPECT_THROW(t.assign_where(Topology(3, 4), Topology(2, 4)), std::invalid_argument);
}

}  // namespace
}  // namespace cp::squish

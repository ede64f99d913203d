// Property suite for the bit-packed Topology (docs/GRID.md): every packed
// grid operation is checked against squish::ByteTopology, the retained
// byte-per-cell reference implementation, on randomized shapes that stress
// the word layout — cols % 64 in {0, 1, 63}, single-word rows, multi-word
// rows, and tiny degenerate grids.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "squish/topology.h"
#include "tests/squish/reference.h"
#include "util/rng.h"

namespace cp::squish {
namespace {

// Shapes chosen to cover the packed edge cases: exact word multiples,
// one-past and one-short of a word boundary, sub-word rows, and 1-wide /
// 1-tall degenerates.
struct Shape {
  int rows;
  int cols;
};
constexpr Shape kShapes[] = {
    {1, 1},  {3, 7},   {5, 63},  {4, 64},  {2, 65},   {7, 127},
    {3, 128}, {6, 129}, {17, 40}, {64, 64}, {1, 200},  {33, 1},
};

/// Build the same random grid in both representations.
void random_pair(util::Rng& rng, int rows, int cols, double density, Topology* t,
                 ByteTopology* b) {
  *t = Topology(rows, cols);
  *b = ByteTopology(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const std::uint8_t v = rng.bernoulli(density) ? 1 : 0;
      t->set(r, c, v);
      b->set(r, c, v);
    }
  }
}

/// Every cell of the packed grid equals the byte reference.
::testing::AssertionResult cells_equal(const Topology& t, const ByteTopology& b) {
  if (t.rows() != b.rows() || t.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << t.rows() << "x" << t.cols() << " vs " << b.rows() << "x" << b.cols();
  }
  for (int r = 0; r < t.rows(); ++r) {
    for (int c = 0; c < t.cols(); ++c) {
      if (t.at(r, c) != b.at(r, c)) {
        return ::testing::AssertionFailure()
               << "cell (" << r << "," << c << "): packed " << int(t.at(r, c)) << " byte "
               << int(b.at(r, c));
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(TopologyPropertyTest, RoundTripAndPopcountMatchReference) {
  util::Rng rng(101);
  for (const Shape& s : kShapes) {
    for (double density : {0.0, 0.15, 0.5, 1.0}) {
      Topology t;
      ByteTopology b;
      random_pair(rng, s.rows, s.cols, density, &t, &b);
      EXPECT_TRUE(cells_equal(t, b));
      EXPECT_EQ(t, b.packed()) << s.rows << "x" << s.cols;
      EXPECT_EQ(ByteTopology(t), b) << s.rows << "x" << s.cols;
      EXPECT_EQ(t.popcount(), b.popcount());
      EXPECT_DOUBLE_EQ(t.density(), b.density());
    }
  }
}

TEST(TopologyPropertyTest, WindowMatchesReference) {
  util::Rng rng(102);
  for (const Shape& s : kShapes) {
    Topology t;
    ByteTopology b;
    random_pair(rng, s.rows, s.cols, 0.4, &t, &b);
    for (int trial = 0; trial < 8; ++trial) {
      const int r0 = rng.uniform_int(0, s.rows - 1);
      const int r1 = rng.uniform_int(r0 + 1, s.rows);
      const int c0 = rng.uniform_int(0, s.cols - 1);
      const int c1 = rng.uniform_int(c0 + 1, s.cols);
      EXPECT_EQ(t.window(r0, c0, r1, c1), b.window(r0, c0, r1, c1).packed())
          << s.rows << "x" << s.cols << " window [" << r0 << "," << r1 << ")x[" << c0 << ","
          << c1 << ")";
    }
  }
}

TEST(TopologyPropertyTest, PasteMatchesReference) {
  util::Rng rng(103);
  for (const Shape& s : kShapes) {
    for (int trial = 0; trial < 8; ++trial) {
      Topology t, tile;
      ByteTopology b, btile;
      random_pair(rng, s.rows, s.cols, 0.4, &t, &b);
      const int tr = rng.uniform_int(1, s.rows);
      const int tc = rng.uniform_int(1, s.cols);
      random_pair(rng, tr, tc, 0.6, &tile, &btile);
      // Offsets deliberately run past the border to exercise clipping.
      const int r0 = rng.uniform_int(0, s.rows - 1);
      const int c0 = rng.uniform_int(0, s.cols - 1);
      t.paste(tile, r0, c0);
      b.paste(btile, r0, c0);
      EXPECT_EQ(t, b.packed()) << s.rows << "x" << s.cols << " paste " << tr << "x" << tc
                               << " at (" << r0 << "," << c0 << ")";
    }
  }
}

TEST(TopologyPropertyTest, FillMatchesReference) {
  util::Rng rng(108);
  for (const Shape& s : kShapes) {
    for (int trial = 0; trial < 8; ++trial) {
      Topology t;
      ByteTopology b;
      random_pair(rng, s.rows, s.cols, 0.3, &t, &b);
      const int r0 = rng.uniform_int(0, s.rows);
      const int r1 = rng.uniform_int(r0, s.rows);
      const int c0 = rng.uniform_int(0, s.cols);
      const int c1 = rng.uniform_int(c0, s.cols);
      t.fill(r0, c0, r1, c1);
      for (int r = r0; r < r1; ++r) {
        for (int c = c0; c < c1; ++c) b.set(r, c, 1);
      }
      EXPECT_EQ(t, b.packed()) << s.rows << "x" << s.cols << " fill [" << r0 << "," << r1
                               << ")x[" << c0 << "," << c1 << ")";
    }
  }
  Topology t(2, 3);
  EXPECT_THROW(t.fill(0, 0, 3, 1), std::out_of_range);
  EXPECT_THROW(t.fill(0, 2, 1, 1), std::out_of_range);
}

TEST(TopologyPropertyTest, TransposeAndFlipsMatchReference) {
  util::Rng rng(104);
  for (const Shape& s : kShapes) {
    Topology t;
    ByteTopology b;
    random_pair(rng, s.rows, s.cols, 0.5, &t, &b);
    EXPECT_EQ(t.transposed(), b.transposed().packed()) << s.rows << "x" << s.cols;
    EXPECT_EQ(t.flipped_horizontal(), b.flipped_horizontal().packed()) << s.rows << "x" << s.cols;
    EXPECT_EQ(t.flipped_vertical(), b.flipped_vertical().packed()) << s.rows << "x" << s.cols;
    EXPECT_EQ(t.transposed().transposed(), t);
    EXPECT_EQ(t.flipped_horizontal().flipped_horizontal(), t);
  }
}

TEST(TopologyPropertyTest, RowColEqualityAndDedupMatchReference) {
  util::Rng rng(105);
  for (const Shape& s : kShapes) {
    Topology t;
    ByteTopology b;
    random_pair(rng, s.rows, s.cols, 0.3, &t, &b);
    // Force some duplicate rows/columns so both branches are exercised.
    if (s.rows >= 2) {
      for (int c = 0; c < s.cols; ++c) {
        t.set(1, c, t.at(0, c));
        b.set(1, c, b.at(0, c));
      }
    }
    if (s.cols >= 2) {
      for (int r = 0; r < s.rows; ++r) {
        t.set(r, 1, t.at(r, 0));
        b.set(r, 1, b.at(r, 0));
      }
    }
    for (int a = 0; a < s.rows; ++a) {
      for (int c = 0; c < s.rows; ++c) {
        EXPECT_EQ(t.rows_equal(a, c), b.rows_equal(a, c)) << a << "," << c;
      }
    }
    const int col_probe = std::min(s.cols, 8);
    for (int a = 0; a < col_probe; ++a) {
      for (int c = 0; c < col_probe; ++c) {
        EXPECT_EQ(t.cols_equal(a, c), b.cols_equal(a, c)) << a << "," << c;
      }
    }
    EXPECT_EQ(t.deduplicated(), b.deduplicated().packed()) << s.rows << "x" << s.cols;
  }
}

/// Run lengths of 1-3 that sum to exactly `total`.
std::vector<int> random_runs(util::Rng& rng, int total) {
  std::vector<int> runs;
  for (int left = total; left > 0;) {
    const int n = std::min(left, rng.uniform_int(1, 3));
    runs.push_back(n);
    left -= n;
  }
  return runs;
}

TEST(TopologyPropertyTest, DedupOfRepeatedRunsMatchesReference) {
  // Random fills almost never hold equal adjacent columns. Here every column
  // and row of a random base grid repeats 1-3 times, so dropped columns land
  // on both sides of each word boundary and the carry between words matters.
  util::Rng rng(107);
  for (const int cols : {63, 64, 65, 127, 129, 200}) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::vector<int> col_runs = random_runs(rng, cols);
      const std::vector<int> row_runs = random_runs(rng, rng.uniform_int(1, 24));
      const double density = trial == 0 ? 0.0 : trial == 1 ? 1.0 : 0.5;
      std::vector<std::uint8_t> base(row_runs.size() * col_runs.size());
      for (std::uint8_t& v : base) v = rng.bernoulli(density) ? 1 : 0;
      int rows = 0;
      for (const int n : row_runs) rows += n;
      Topology t(rows, cols);
      ByteTopology b(rows, cols);
      int r = 0;
      for (std::size_t i = 0; i < row_runs.size(); ++i) {
        for (int k = 0; k < row_runs[i]; ++k, ++r) {
          int c = 0;
          for (std::size_t j = 0; j < col_runs.size(); ++j) {
            for (int m = 0; m < col_runs[j]; ++m, ++c) {
              const std::uint8_t v = base[i * col_runs.size() + j];
              t.set(r, c, v);
              b.set(r, c, v);
            }
          }
        }
      }
      const ByteTopology expected = b.deduplicated();
      EXPECT_EQ(t.deduplicated(), expected.packed()) << rows << "x" << cols << " #" << trial;
      EXPECT_EQ(t.complexity(), std::make_pair(expected.cols(), expected.rows()))
          << rows << "x" << cols << " #" << trial;
    }
  }
}

TEST(TopologyPropertyTest, BytesRoundTrip) {
  util::Rng rng(106);
  for (const Shape& s : kShapes) {
    Topology t;
    ByteTopology b;
    random_pair(rng, s.rows, s.cols, 0.5, &t, &b);
    const std::vector<std::uint8_t> bytes = t.to_bytes();
    ASSERT_EQ(bytes.size(), t.size());
    for (int r = 0; r < s.rows; ++r) {
      for (int c = 0; c < s.cols; ++c) {
        EXPECT_EQ(bytes[static_cast<std::size_t>(r) * s.cols + c], b.at(r, c));
      }
    }
    EXPECT_EQ(Topology::from_bytes(s.rows, s.cols, bytes.data(), bytes.size()), t);
  }
}

// Satellite fix: non-{0,1} input cannot cross the packed boundary. from_bytes
// is the only byte-oriented constructor, and it validates.
TEST(TopologyPropertyTest, FromBytesRejectsNonBinaryAndBadSize) {
  const std::uint8_t ok[4] = {0, 1, 1, 0};
  EXPECT_NO_THROW(Topology::from_bytes(2, 2, ok, 4));
  const std::uint8_t bad[4] = {0, 1, 2, 0};
  EXPECT_THROW(Topology::from_bytes(2, 2, bad, 4), std::invalid_argument);
  const std::uint8_t high[4] = {0, 1, 255, 0};
  EXPECT_THROW(Topology::from_bytes(2, 2, high, 4), std::invalid_argument);
  EXPECT_THROW(Topology::from_bytes(2, 2, ok, 3), std::invalid_argument);
  EXPECT_THROW(Topology::from_bytes(3, 2, ok, 4), std::invalid_argument);
}

// The tail-mask invariant survives the word-parallel mutation primitive:
// xor_word with an all-ones mask on the last word must not disturb padding
// bits, so equality against a cell-wise-built complement still holds.
TEST(TopologyPropertyTest, XorWordPreservesTailInvariant) {
  for (int cols : {1, 63, 64, 65, 129}) {
    Topology t(3, cols);
    util::Rng rng(107);
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < cols; ++c) t.set(r, c, rng.bernoulli(0.5));
    }
    Topology flipped = t;
    for (int r = 0; r < 3; ++r) {
      for (int w = 0; w < t.words_per_row(); ++w) flipped.xor_word(r, w, ~std::uint64_t{0});
    }
    Topology expected(3, cols);
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < cols; ++c) expected.set(r, c, t.at(r, c) ? 0 : 1);
    }
    EXPECT_EQ(flipped, expected) << "cols " << cols;
    // Double-flip restores the original exactly (word-level involution).
    for (int r = 0; r < 3; ++r) {
      for (int w = 0; w < t.words_per_row(); ++w) flipped.xor_word(r, w, ~std::uint64_t{0});
    }
    EXPECT_EQ(flipped, t) << "cols " << cols;
  }
}

TEST(TopologyPropertyTest, EqualityIsCellwise) {
  util::Rng rng(108);
  for (const Shape& s : kShapes) {
    Topology t;
    ByteTopology b;
    random_pair(rng, s.rows, s.cols, 0.5, &t, &b);
    Topology u = t;
    EXPECT_EQ(u, t);
    const int r = rng.uniform_int(0, s.rows - 1);
    const int c = rng.uniform_int(0, s.cols - 1);
    u.set(r, c, u.at(r, c) ? 0 : 1);
    EXPECT_NE(u, t);
    u.set(r, c, t.at(r, c));
    EXPECT_EQ(u, t);
  }
}

}  // namespace
}  // namespace cp::squish

// Parity of the word-parallel diffusion/DRC kernels against the retained
// scalar reference implementations (tests/diffusion/reference.h). The packed
// kernels must be bit-identical AND consume the identical RNG stream — the
// goldens and the cross-thread determinism contract both depend on it.

#include <gtest/gtest.h>

#include <vector>

#include "diffusion/tabular_denoiser.h"
#include "diffusion/transition.h"
#include "drc/checker.h"
#include "tests/diffusion/reference.h"
#include "tests/squish/reference.h"
#include "util/rng.h"

namespace cp::diffusion {
namespace {

struct Shape {
  int rows;
  int cols;
};
constexpr Shape kShapes[] = {{1, 1}, {5, 5}, {9, 9},  {3, 63},  {7, 64},
                             {2, 65}, {16, 70}, {12, 129}, {32, 32}};

squish::Topology random_topology(util::Rng& rng, int rows, int cols, double density) {
  squish::Topology t(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) t.set(r, c, rng.bernoulli(density));
  }
  return t;
}

TEST(PackedParityTest, ForwardNoiseMatchesReferenceAndRngStream) {
  const NoiseSchedule schedule{ScheduleConfig{}};
  util::Rng shape_rng(201);
  for (const Shape& s : kShapes) {
    const squish::Topology x0 = random_topology(shape_rng, s.rows, s.cols, 0.5);
    const squish::ByteTopology bx0(x0);
    for (int k : {1, 10, schedule.steps()}) {
      util::Rng ra(777 + static_cast<std::uint64_t>(k));
      util::Rng rb(777 + static_cast<std::uint64_t>(k));
      const squish::Topology packed = forward_noise(x0, schedule, k, ra);
      const squish::ByteTopology byte = reference_forward_noise(bx0, schedule, k, rb);
      EXPECT_EQ(packed, byte.packed()) << s.rows << "x" << s.cols << " k=" << k;
      // Identical stream consumption: the generators must be in the same
      // state afterwards (one bernoulli per cell, row-major).
      for (int probe = 0; probe < 8; ++probe) {
        ASSERT_EQ(ra.next_u64(), rb.next_u64()) << "RNG stream diverged at k=" << k;
      }
    }
  }
}

TEST(PackedParityTest, NeighborhoodIndicesMatchReference) {
  util::Rng rng(202);
  for (const Shape& s : kShapes) {
    const squish::Topology t = random_topology(rng, s.rows, s.cols, 0.4);
    const squish::ByteTopology b(t);
    std::vector<int> idx(static_cast<std::size_t>(s.cols));
    for (int r = 0; r < s.rows; ++r) {
      TabularDenoiser::neighborhood_indices_row(t, r, idx.data());
      for (int c = 0; c < s.cols; ++c) {
        ASSERT_EQ(idx[static_cast<std::size_t>(c)], reference_neighborhood_index(b, r, c))
            << s.rows << "x" << s.cols << " cell (" << r << "," << c << ")";
      }
    }
  }
}

TEST(PackedParityTest, DrcRunScansMatchReference) {
  util::Rng rng(204);
  for (const Shape& s : kShapes) {
    const squish::Topology t = random_topology(rng, s.rows, s.cols, 0.5);
    const squish::ByteTopology b(t);
    for (std::uint8_t value : {0, 1}) {
      for (int r = 0; r < s.rows; ++r) {
        EXPECT_EQ(drc::row_runs(t, r, value), reference_row_runs(b, r, value))
            << s.rows << "x" << s.cols << " row " << r << " value " << int(value);
      }
      // Column runs via the packed transpose agree with the per-column walk.
      const squish::Topology tt = t.transposed();
      const squish::ByteTopology btt(tt);
      for (int c = 0; c < s.cols; ++c) {
        EXPECT_EQ(drc::col_runs(t, c, value), reference_row_runs(btt, c, value))
            << s.rows << "x" << s.cols << " col " << c << " value " << int(value);
      }
    }
  }
}

// Degenerate and extreme noise levels: all-zero and all-one grids survive the
// word-parallel path with the tail invariant intact (popcount sane).
TEST(PackedParityTest, ExtremeGridsKeepTailInvariant) {
  const NoiseSchedule schedule{ScheduleConfig{}};
  for (int cols : {1, 63, 64, 65}) {
    const squish::Topology zeros(4, cols);
    squish::Topology ones(4, cols);
    for (int r = 0; r < 4; ++r) {
      for (int c = 0; c < cols; ++c) ones.set(r, c, 1);
    }
    EXPECT_EQ(zeros.popcount(), 0u);
    EXPECT_EQ(ones.popcount(), static_cast<std::size_t>(4) * cols);
    util::Rng ra(31), rb(31);
    const squish::Topology nz = forward_noise(zeros, schedule, schedule.steps(), ra);
    const squish::ByteTopology bz =
        reference_forward_noise(squish::ByteTopology(zeros), schedule, schedule.steps(), rb);
    EXPECT_EQ(nz, bz.packed()) << "cols " << cols;
    EXPECT_LE(nz.popcount(), static_cast<std::size_t>(4) * cols);
  }
}

}  // namespace
}  // namespace cp::diffusion

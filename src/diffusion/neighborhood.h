#pragma once
// Packed gather of the 17-cell denoiser neighbourhood.
//
// Both denoisers condition each pixel on the same neighbourhood (the diamond
// + ring + distance-4 probes of TabularDenoiser). On the bit-packed grid the
// whole gather becomes word-parallel for interior rows: each neighbour offset
// (dr, dc) turns into one funnel-shifted 64-bit "plane" whose bit j is cell
// (r + dr, w*64 + j + dc), so 17 shifted word reads replace 64x17 scattered
// byte loads. Transposing the 17 planes (bitgrid_transpose64) then yields all
// 64 neighbourhood *indices* of the word at once: after the transpose, lane j
// holds bit i = plane_i bit j, which is exactly the table index of cell j.
//
// Callers are responsible for the boundary: planes are only valid for cells
// with kMargin <= r < rows - kMargin and kMargin <= c < cols - kMargin;
// border cells take the scalar fallback through `mirror` below, which both
// denoisers share. See docs/GRID.md for the idiom.

#include <cstdint>

#include "geometry/bitgrid.h"
#include "squish/topology.h"

namespace cp::diffusion::neighborhood {

/// Neighbourhood size and offsets (dr, dc): center, 4-ring, diagonals, the
/// distance-2 cross, then the distance-4 probes. Order defines the bit layout
/// of the tabular table index and of the MLP feature vector; both denoisers
/// alias this table.
inline constexpr int kCount = 17;
inline constexpr int kOffsets[kCount][2] = {
    {0, 0},  {-1, 0}, {1, 0},  {0, -1}, {0, 1},  {-1, -1}, {-1, 1},  {1, -1}, {1, 1},
    {-2, 0}, {2, 0},  {0, -2}, {0, 2},  {-4, 0}, {4, 0},   {0, -4},  {0, 4},
};

/// Largest |offset| above: cells at least this far from every border need no
/// mirror reflection.
inline constexpr int kMargin = 4;

/// Reflect-101 boundary padding of index `i` into [0, n). A single
/// reflection (-i / 2n-2-i) is only valid while the overshoot is below n;
/// on grids smaller than the distance-4 probes (the cascade's coarse stage
/// runs on rows/factor) a probe crosses both borders, so fold into the
/// 2n-2 period first and any offset maps inside [0, n).
inline int mirror(int i, int n) {
  if (i >= 0 && i < n) return i;
  if (n == 1) return 0;
  const int period = 2 * n - 2;
  i = ((i % period) + period) % period;
  return i < n ? i : period - i;
}

/// Word `wi` of row `rr` funnel-shifted by `dc` columns: bit j of the result
/// is cell (rr, wi*64 + j + dc). Bits whose source column falls outside the
/// row read as garbage only in lanes the caller must not use (non-interior
/// columns); no out-of-bounds memory access occurs.
inline std::uint64_t shifted_row_word(const squish::Topology& t, int rr, int wi, int dc) {
  const std::uint64_t w = t.word(rr, wi);
  if (dc == 0) return w;
  if (dc > 0) {
    const std::uint64_t hi = (wi + 1 < t.words_per_row()) ? t.word(rr, wi + 1) : 0;
    return (w >> dc) | (hi << (64 - dc));
  }
  const std::uint64_t lo = (wi > 0) ? t.word(rr, wi - 1) : 0;
  return (w << -dc) | (lo >> (64 + dc));
}

/// Gather the 17 neighbour planes of word `wi` in row `r`. Requires
/// kMargin <= r < rows - kMargin (all row reads in range); column validity is
/// per-lane as described above.
inline void gather_planes(const squish::Topology& t, int r, int wi,
                          std::uint64_t planes[kCount]) {
  for (int i = 0; i < kCount; ++i) {
    planes[i] = shifted_row_word(t, r + kOffsets[i][0], wi, kOffsets[i][1]);
  }
}

/// Gather + transpose: idx[j] is the 17-bit neighbourhood index of cell
/// (r, wi*64 + j), valid for interior lanes only.
inline void gather_indices(const squish::Topology& t, int r, int wi, std::uint64_t idx[64]) {
  gather_planes(t, r, wi, idx);
  for (int i = kCount; i < 64; ++i) idx[i] = 0;
  geometry::bitgrid_transpose64(idx);
}

}  // namespace cp::diffusion::neighborhood

#pragma once
// The binary topology matrix T of the squish pattern representation
// (Gennari & Lai, "Topology design using squish patterns").
//
// A Topology is a {0,1} matrix. Row index grows downward (y direction),
// column index rightward (x direction). All generative-model state in this
// library is a Topology; geometry only re-enters through the delta vectors of
// SquishPattern.
//
// Storage is bit-packed: 64 cells per std::uint64_t word, row-major with a
// word-aligned row pitch of `words_per_row() = ceil(cols / 64)` words, least
// significant bit first within a word (cell (r, c) is bit c % 64 of word
// r * words_per_row() + c / 64). Bits at positions >= cols in the last word
// of each row are always zero — the tail-mask invariant — which makes
// equality a plain member compare and row comparison a word-vector compare.
// docs/GRID.md is the authoritative description of the layout and of how to
// write new packed kernels; the test oracle tests/squish/reference.h keeps the
// byte-backed implementation as the executable specification.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "geometry/bitgrid.h"

namespace cp::squish {

class Topology {
 public:
  Topology() = default;
  Topology(int rows, int cols, std::uint8_t fill = 0);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  /// Number of cells (rows * cols), NOT the storage footprint.
  std::size_t size() const { return static_cast<std::size_t>(rows_) * cols_; }
  bool empty() const { return size() == 0; }

  std::uint8_t at(int r, int c) const {
    return static_cast<std::uint8_t>((words_[word_index(r, c >> 6)] >> (c & 63)) & 1u);
  }
  void set(int r, int c, std::uint8_t v) {
    std::uint64_t& w = words_[word_index(r, c >> 6)];
    const std::uint64_t bit = std::uint64_t{1} << (c & 63);
    w = v ? (w | bit) : (w & ~bit);
  }

  /// --- packed-storage access (see docs/GRID.md) ---

  /// Words per row (the row pitch): ceil(cols / 64).
  int words_per_row() const { return words_per_row_; }
  /// Word `w` of row `r`: cells [w*64, min((w+1)*64, cols)) of that row.
  std::uint64_t word(int r, int w) const { return words_[word_index(r, w)]; }
  /// Pointer to the first word of row `r` (words_per_row() words long).
  const std::uint64_t* row_words(int r) const {
    return words_.data() + static_cast<std::size_t>(r) * words_per_row_;
  }
  /// Flip the cells selected by `mask` in word `w` of row `r` — the word-
  /// parallel mutation primitive of the noising kernels. Tail bits of the
  /// mask are discarded so the zero-tail invariant cannot be violated.
  void xor_word(int r, int w, std::uint64_t mask) {
    if (w == words_per_row_ - 1) mask &= tail_mask();
    words_[word_index(r, w)] ^= mask;
  }
  /// Masked copy: each cell set in `mask` takes its value from `src`, the
  /// others keep theirs. Word-parallel; `mask` and `src` must have this
  /// grid's dimensions (std::invalid_argument otherwise).
  void assign_where(const Topology& mask, const Topology& src);
  /// Mask of valid bits in the last word of each row (all ones if cols % 64
  /// == 0). Tail bits above it are zero by invariant.
  std::uint64_t tail_mask() const { return geometry::bitgrid_tail_mask(cols_); }
  /// Read-only bit-grid view for the geometry module.
  geometry::BitGridView view() const {
    return geometry::BitGridView{words_.data(), rows_, cols_, words_per_row_};
  }

  /// Unpack to one byte per cell (row-major, values in {0,1}) — the external
  /// serialization format of the populate journal and friends.
  std::vector<std::uint8_t> to_bytes() const;
  /// Pack from one byte per cell. This is the validating boundary between
  /// byte-oriented inputs and the packed substrate: any byte outside {0,1}
  /// throws std::invalid_argument, so non-binary state is impossible to
  /// construct.
  static Topology from_bytes(int rows, int cols, const std::uint8_t* bytes, std::size_t count);

  /// Number of filled cells.
  std::size_t popcount() const;

  /// Fraction of filled cells in [0,1].
  double density() const;

  /// Extract the half-open cell window [r0,r1) x [c0,c1) as a new Topology.
  Topology window(int r0, int c0, int r1, int c1) const;

  /// Paste `tile` with its top-left cell at (r0, c0); clips at the border.
  void paste(const Topology& tile, int r0, int c0);

  /// Set every cell of the half-open block [r0,r1) x [c0,c1), a word at a
  /// time. Throws std::out_of_range on bounds outside the grid.
  void fill(int r0, int c0, int r1, int c1);

  /// Transforms used by the rule-based augmentation baseline.
  Topology transposed() const;
  Topology flipped_horizontal() const;
  Topology flipped_vertical() const;

  /// Whole-row / whole-column equality (word-vector compares).
  bool rows_equal(int a, int b) const;
  bool cols_equal(int a, int b) const;

  /// Remove adjacent duplicate rows and columns — the inverse of the
  /// pad-normalisation. The result is the minimal "squished" matrix whose
  /// scan-line structure matches this topology.
  Topology deduplicated() const;

  /// Complexity (c_x, c_y): the number of scan lines minus one along each
  /// axis of the deduplicated matrix (Definition 2 in the paper), i.e. the
  /// deduplicated column/row counts.
  std::pair<int, int> complexity() const;

  /// Multi-line '.'/'#' art (for figures and debugging).
  std::string to_ascii() const;

  /// PBM (P1) image text, viewable by common tools.
  std::string to_pbm() const;

  /// Sound because of the tail-mask invariant: padding bits are always zero,
  /// so equal logical grids have equal word vectors.
  bool operator==(const Topology&) const = default;

 private:
  std::size_t word_index(int r, int w) const {
    return static_cast<std::size_t>(r) * words_per_row_ + w;
  }

  int rows_ = 0;
  int cols_ = 0;
  int words_per_row_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Majority pooling: each factor x factor block becomes one cell (1 iff at
/// least half the block is filled). Dimensions must divide evenly.
Topology downsample_majority(const Topology& t, int factor);

/// Nearest-neighbour upsampling: each cell expands to a factor x factor
/// block. Exact inverse of downsample for block-constant topologies.
Topology upsample_nearest(const Topology& t, int factor);

}  // namespace cp::squish

#include "squish/topology.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace cp::squish {

namespace {

using geometry::bitgrid_tail_mask;
using geometry::bitgrid_words_per_row;

/// Copy `count` bits starting at bit `offset` of the `src_words`-word source
/// row into `dst` starting at bit 0. Writes ceil(count/64) words with zero
/// tail bits; never reads past src[src_words - 1].
void extract_bits(const std::uint64_t* src, int src_words, int offset, int count,
                  std::uint64_t* dst) {
  if (count <= 0) return;
  const int out_words = bitgrid_words_per_row(count);
  const int q = offset >> 6;
  const int sh = offset & 63;
  for (int i = 0; i < out_words; ++i) {
    std::uint64_t w = src[q + i] >> sh;
    if (sh != 0 && q + i + 1 < src_words) w |= src[q + i + 1] << (64 - sh);
    dst[i] = w;
  }
  dst[out_words - 1] &= bitgrid_tail_mask(count);
}

/// Write `count` bits (read from bit 0 of `src`) into the destination row at
/// bit `offset`, leaving all other destination bits untouched.
void deposit_bits(std::uint64_t* dst, int offset, int count, const std::uint64_t* src) {
  if (count <= 0) return;
  const int q = offset >> 6;
  const int sh = offset & 63;
  const int in_words = bitgrid_words_per_row(count);
  for (int i = 0; i < in_words; ++i) {
    const int bits_here = std::min(64, count - i * 64);
    const std::uint64_t m = bitgrid_tail_mask(bits_here);
    const std::uint64_t v = src[i] & m;
    dst[q + i] = (dst[q + i] & ~(m << sh)) | (v << sh);
    if (sh != 0 && (m >> (64 - sh)) != 0) {
      dst[q + i + 1] = (dst[q + i + 1] & ~(m >> (64 - sh))) | (v >> (64 - sh));
    }
  }
}

std::uint64_t bit_reverse(std::uint64_t v) {
  v = ((v >> 1) & 0x5555555555555555ULL) | ((v & 0x5555555555555555ULL) << 1);
  v = ((v >> 2) & 0x3333333333333333ULL) | ((v & 0x3333333333333333ULL) << 2);
  v = ((v >> 4) & 0x0F0F0F0F0F0F0F0FULL) | ((v & 0x0F0F0F0F0F0F0F0FULL) << 4);
  v = ((v >> 8) & 0x00FF00FF00FF00FFULL) | ((v & 0x00FF00FF00FF00FFULL) << 8);
  v = ((v >> 16) & 0x0000FFFF0000FFFFULL) | ((v & 0x0000FFFF0000FFFFULL) << 16);
  return (v >> 32) | (v << 32);
}

/// Fixed-mask bit compress (Hacker's Delight 7-4): gathers the bits of a
/// word selected by `mask` into its low popcount(mask) bits, in order. The
/// shift masks depend only on `mask`, so they are built once per column word
/// and every row word then compresses in six shift-and-merge steps.
class Compress {
 public:
  explicit Compress(std::uint64_t mask) : mask_(mask) {
    std::uint64_t mk = ~mask << 1;  // counts the zeros to the right of each bit
    for (int i = 0; i < 6; ++i) {
      std::uint64_t mp = mk ^ (mk << 1);  // parallel suffix
      mp ^= mp << 2;
      mp ^= mp << 4;
      mp ^= mp << 8;
      mp ^= mp << 16;
      mp ^= mp << 32;
      move_[i] = mp & mask;
      mask = (mask ^ move_[i]) | (move_[i] >> (1 << i));
      mk &= ~mp;
    }
  }
  std::uint64_t operator()(std::uint64_t x) const {
    x &= mask_;
    for (int i = 0; i < 6; ++i) {
      const std::uint64_t t = x & move_[i];
      x = (x ^ t) | (t >> (1 << i));
    }
    return x;
  }

 private:
  std::uint64_t mask_;
  std::uint64_t move_[6] = {};
};

/// The scan lines deduplication keeps: every row that differs from the row
/// above, and a packed mask of every column that differs from the column to
/// its left (row 0 and column 0 always).
struct ScanLines {
  std::vector<int> rows;
  std::vector<std::uint64_t> cols;
  int col_count = 0;
};

ScanLines distinct_scan_lines(const Topology& t) {
  ScanLines s;
  const int wpr = t.words_per_row();
  s.rows.push_back(0);
  for (int r = 1; r < t.rows(); ++r) {
    if (!t.rows_equal(r, r - 1)) s.rows.push_back(r);
  }
  // Bit c of row ^ (row << 1 | carry) is cell c xor cell c - 1. A duplicate
  // row adds no new difference, so only the kept rows are scanned.
  s.cols.assign(static_cast<std::size_t>(wpr), 0);
  for (const int r : s.rows) {
    const std::uint64_t* row = t.row_words(r);
    std::uint64_t carry = 0;
    for (int w = 0; w < wpr; ++w) {
      s.cols[w] |= row[w] ^ ((row[w] << 1) | carry);
      carry = row[w] >> 63;
    }
  }
  s.cols[0] |= 1;
  s.cols[wpr - 1] &= t.tail_mask();  // the shift carries cell cols-1 into the tail
  for (const std::uint64_t w : s.cols) s.col_count += std::popcount(w);
  return s;
}

}  // namespace

Topology::Topology(int rows, int cols, std::uint8_t fill)
    : rows_(rows),
      cols_(cols),
      words_per_row_(bitgrid_words_per_row(cols)),
      words_(static_cast<std::size_t>(rows) * bitgrid_words_per_row(cols),
             fill ? ~std::uint64_t{0} : 0) {
  if (rows < 0 || cols < 0) throw std::invalid_argument("Topology: negative dimensions");
  if (fill && words_per_row_ > 0) {
    const std::uint64_t tail = tail_mask();
    for (int r = 0; r < rows_; ++r) {
      words_[word_index(r, words_per_row_ - 1)] &= tail;
    }
  }
}

std::vector<std::uint8_t> Topology::to_bytes() const {
  std::vector<std::uint8_t> bytes(size());
  std::size_t i = 0;
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) bytes[i++] = at(r, c);
  }
  return bytes;
}

Topology Topology::from_bytes(int rows, int cols, const std::uint8_t* bytes,
                              std::size_t count) {
  Topology t(rows, cols);
  if (count != t.size()) throw std::invalid_argument("Topology::from_bytes: size mismatch");
  std::size_t i = 0;
  for (int r = 0; r < rows; ++r) {
    std::uint64_t* row = t.words_.data() + t.word_index(r, 0);
    for (int c = 0; c < cols; ++c, ++i) {
      const std::uint8_t v = bytes[i];
      if (v > 1) throw std::invalid_argument("Topology::from_bytes: cell value not in {0,1}");
      row[c >> 6] |= static_cast<std::uint64_t>(v) << (c & 63);
    }
  }
  return t;
}

std::size_t Topology::popcount() const {
  std::size_t n = 0;
  for (std::uint64_t w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

double Topology::density() const {
  return empty() ? 0.0 : static_cast<double>(popcount()) / static_cast<double>(size());
}

Topology Topology::window(int r0, int c0, int r1, int c1) const {
  if (r0 < 0 || c0 < 0 || r1 > rows_ || c1 > cols_ || r0 > r1 || c0 > c1) {
    throw std::out_of_range("Topology::window: bad bounds");
  }
  Topology out(r1 - r0, c1 - c0);
  for (int r = r0; r < r1; ++r) {
    extract_bits(row_words(r), words_per_row_, c0, c1 - c0,
                 out.words_.data() + out.word_index(r - r0, 0));
  }
  return out;
}

void Topology::assign_where(const Topology& mask, const Topology& src) {
  if (mask.rows_ != rows_ || mask.cols_ != cols_ || src.rows_ != rows_ || src.cols_ != cols_) {
    throw std::invalid_argument("Topology::assign_where: dimension mismatch");
  }
  // Tail bits of mask and src are zero, so the tail-mask invariant holds.
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] = (words_[i] & ~mask.words_[i]) | (src.words_[i] & mask.words_[i]);
  }
}

void Topology::paste(const Topology& tile, int r0, int c0) {
  const int r_begin = std::max(0, r0);
  const int c_begin = std::max(0, c0);
  const int r_end = std::min(rows_, r0 + tile.rows());
  const int c_end = std::min(cols_, c0 + tile.cols());
  const int count = c_end - c_begin;
  if (count <= 0 || r_end <= r_begin) return;
  std::vector<std::uint64_t> tmp(bitgrid_words_per_row(count));
  for (int r = r_begin; r < r_end; ++r) {
    extract_bits(tile.row_words(r - r0), tile.words_per_row_, c_begin - c0, count, tmp.data());
    deposit_bits(words_.data() + word_index(r, 0), c_begin, count, tmp.data());
  }
}

void Topology::fill(int r0, int c0, int r1, int c1) {
  if (r0 < 0 || c0 < 0 || r1 > rows_ || c1 > cols_ || r0 > r1 || c0 > c1) {
    throw std::out_of_range("Topology::fill: bad bounds");
  }
  if (c0 == c1) return;
  const int w0 = c0 >> 6;
  const int w1 = (c1 - 1) >> 6;
  const std::uint64_t first = ~std::uint64_t{0} << (c0 & 63);
  const std::uint64_t last = bitgrid_tail_mask(c1);  // cells below c1 in word w1
  for (int r = r0; r < r1; ++r) {
    std::uint64_t* row = words_.data() + word_index(r, 0);
    if (w0 == w1) {
      row[w0] |= first & last;
      continue;
    }
    row[w0] |= first;
    for (int w = w0 + 1; w < w1; ++w) row[w] = ~std::uint64_t{0};
    row[w1] |= last;
  }
}

Topology Topology::transposed() const {
  Topology out(cols_, rows_);
  for (int bi = 0; bi * 64 < rows_; ++bi) {
    const int r_base = bi * 64;
    const int r_lim = std::min(64, rows_ - r_base);
    for (int bj = 0; bj < words_per_row_; ++bj) {
      std::uint64_t x[64] = {};
      for (int i = 0; i < r_lim; ++i) x[i] = word(r_base + i, bj);
      geometry::bitgrid_transpose64(x);
      const int c_base = bj * 64;
      const int c_lim = std::min(64, cols_ - c_base);
      for (int j = 0; j < c_lim; ++j) {
        out.words_[out.word_index(c_base + j, bi)] = x[j];
      }
    }
  }
  return out;
}

Topology Topology::flipped_horizontal() const {
  Topology out(rows_, cols_);
  if (words_per_row_ == 0) return out;
  const int pad = words_per_row_ * 64 - cols_;
  std::vector<std::uint64_t> tmp(words_per_row_);
  for (int r = 0; r < rows_; ++r) {
    const std::uint64_t* src = row_words(r);
    for (int i = 0; i < words_per_row_; ++i) {
      tmp[i] = bit_reverse(src[words_per_row_ - 1 - i]);
    }
    extract_bits(tmp.data(), words_per_row_, pad, cols_,
                 out.words_.data() + out.word_index(r, 0));
  }
  return out;
}

Topology Topology::flipped_vertical() const {
  Topology out(rows_, cols_);
  for (int r = 0; r < rows_; ++r) {
    std::copy(row_words(r), row_words(r) + words_per_row_,
              out.words_.data() + out.word_index(rows_ - 1 - r, 0));
  }
  return out;
}

bool Topology::rows_equal(int a, int b) const {
  return std::equal(row_words(a), row_words(a) + words_per_row_, row_words(b));
}

bool Topology::cols_equal(int a, int b) const {
  const int wa = a >> 6, sa = a & 63;
  const int wb = b >> 6, sb = b & 63;
  for (int r = 0; r < rows_; ++r) {
    const std::uint64_t* row = row_words(r);
    if (((row[wa] >> sa) ^ (row[wb] >> sb)) & 1u) return false;
  }
  return true;
}

Topology Topology::deduplicated() const {
  if (empty()) return Topology();
  const ScanLines keep = distinct_scan_lines(*this);
  Topology out(static_cast<int>(keep.rows.size()), keep.col_count);
  std::uint64_t* dst = out.words_.data();
  if (keep.col_count == cols_) {
    for (const int r : keep.rows) {
      dst = std::copy(row_words(r), row_words(r) + words_per_row_, dst);
    }
    return out;
  }
  std::vector<Compress> gather;
  gather.reserve(keep.cols.size());
  for (const std::uint64_t m : keep.cols) gather.emplace_back(m);
  for (const int r : keep.rows) {
    const std::uint64_t* row = row_words(r);
    int pos = 0;  // next output bit of this row
    for (int w = 0; w < words_per_row_; ++w) {
      const int n = std::popcount(keep.cols[w]);
      if (n == 0) continue;
      const std::uint64_t v = gather[w](row[w]);
      const int sh = pos & 63;
      dst[pos >> 6] |= v << sh;
      if (sh != 0 && sh + n > 64) dst[(pos >> 6) + 1] |= v >> (64 - sh);
      pos += n;
    }
    dst += out.words_per_row_;
  }
  return out;
}

std::pair<int, int> Topology::complexity() const {
  if (empty()) return {0, 0};
  const ScanLines keep = distinct_scan_lines(*this);
  return {keep.col_count, static_cast<int>(keep.rows.size())};
}

std::string Topology::to_ascii() const {
  std::string out;
  out.reserve(static_cast<std::size_t>(rows_) * (cols_ + 1));
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) out += at(r, c) ? '#' : '.';
    out += '\n';
  }
  return out;
}

std::string Topology::to_pbm() const {
  std::string out = "P1\n" + std::to_string(cols_) + " " + std::to_string(rows_) + "\n";
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) {
      out += at(r, c) ? '1' : '0';
      out += (c + 1 == cols_) ? '\n' : ' ';
    }
  }
  return out;
}

Topology downsample_majority(const Topology& t, int factor) {
  if (factor < 1 || t.rows() % factor != 0 || t.cols() % factor != 0) {
    throw std::invalid_argument("downsample_majority: dims must divide by factor");
  }
  Topology out(t.rows() / factor, t.cols() / factor);
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) {
      int ones = 0;
      for (int dr = 0; dr < factor; ++dr) {
        for (int dc = 0; dc < factor; ++dc) ones += t.at(r * factor + dr, c * factor + dc);
      }
      out.set(r, c, 2 * ones >= factor * factor ? 1 : 0);
    }
  }
  return out;
}

Topology upsample_nearest(const Topology& t, int factor) {
  if (factor < 1) throw std::invalid_argument("upsample_nearest: bad factor");
  Topology out(t.rows() * factor, t.cols() * factor);
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) out.set(r, c, t.at(r / factor, c / factor));
  }
  return out;
}

}  // namespace cp::squish

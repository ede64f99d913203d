#include "tests/squish/reference.h"

#include <algorithm>
#include <stdexcept>

namespace cp::squish {

ByteTopology::ByteTopology(int rows, int cols, std::uint8_t fill)
    : rows_(rows), cols_(cols), data_(static_cast<std::size_t>(rows) * cols, fill ? 1 : 0) {
  if (rows < 0 || cols < 0) throw std::invalid_argument("ByteTopology: negative dimensions");
}

ByteTopology::ByteTopology(const Topology& t) : ByteTopology(t.rows(), t.cols()) {
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) data_[index(r, c)] = t.at(r, c);
  }
}

Topology ByteTopology::packed() const {
  return Topology::from_bytes(rows_, cols_, data_.data(), data_.size());
}

std::size_t ByteTopology::popcount() const {
  std::size_t n = 0;
  for (std::uint8_t v : data_) n += v;
  return n;
}

double ByteTopology::density() const {
  return data_.empty() ? 0.0 : static_cast<double>(popcount()) / static_cast<double>(data_.size());
}

ByteTopology ByteTopology::window(int r0, int c0, int r1, int c1) const {
  if (r0 < 0 || c0 < 0 || r1 > rows_ || c1 > cols_ || r0 > r1 || c0 > c1) {
    throw std::out_of_range("ByteTopology::window: bad bounds");
  }
  ByteTopology out(r1 - r0, c1 - c0);
  for (int r = r0; r < r1; ++r) {
    std::copy(data_.begin() + index(r, c0), data_.begin() + index(r, c1),
              out.data_.begin() + out.index(r - r0, 0));
  }
  return out;
}

void ByteTopology::paste(const ByteTopology& tile, int r0, int c0) {
  const int r_begin = std::max(0, r0);
  const int c_begin = std::max(0, c0);
  const int r_end = std::min(rows_, r0 + tile.rows());
  const int c_end = std::min(cols_, c0 + tile.cols());
  for (int r = r_begin; r < r_end; ++r) {
    for (int c = c_begin; c < c_end; ++c) {
      data_[index(r, c)] = tile.at(r - r0, c - c0);
    }
  }
}

ByteTopology ByteTopology::transposed() const {
  ByteTopology out(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) out.set(c, r, at(r, c));
  }
  return out;
}

ByteTopology ByteTopology::flipped_horizontal() const {
  ByteTopology out(rows_, cols_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) out.set(r, cols_ - 1 - c, at(r, c));
  }
  return out;
}

ByteTopology ByteTopology::flipped_vertical() const {
  ByteTopology out(rows_, cols_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) out.set(rows_ - 1 - r, c, at(r, c));
  }
  return out;
}

bool ByteTopology::rows_equal(int a, int b) const {
  for (int c = 0; c < cols_; ++c) {
    if (at(a, c) != at(b, c)) return false;
  }
  return true;
}

bool ByteTopology::cols_equal(int a, int b) const {
  for (int r = 0; r < rows_; ++r) {
    if (at(r, a) != at(r, b)) return false;
  }
  return true;
}

ByteTopology ByteTopology::deduplicated() const {
  if (empty()) return ByteTopology();
  std::vector<int> keep_rows{0};
  for (int r = 1; r < rows_; ++r) {
    if (!rows_equal(r, keep_rows.back())) keep_rows.push_back(r);
  }
  std::vector<int> keep_cols{0};
  for (int c = 1; c < cols_; ++c) {
    if (!cols_equal(c, keep_cols.back())) keep_cols.push_back(c);
  }
  ByteTopology out(static_cast<int>(keep_rows.size()), static_cast<int>(keep_cols.size()));
  for (std::size_t r = 0; r < keep_rows.size(); ++r) {
    for (std::size_t c = 0; c < keep_cols.size(); ++c) {
      out.set(static_cast<int>(r), static_cast<int>(c), at(keep_rows[r], keep_cols[c]));
    }
  }
  return out;
}

}  // namespace cp::squish

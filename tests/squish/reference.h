#pragma once
// Byte-backed reference implementation of the topology grid.
//
// This is the pre-packing storage model (one cell per byte, row-major),
// retained verbatim as the executable specification of squish::Topology:
// the property suite in tests/squish/topology_property_test.cpp checks every
// packed grid operation against this class on randomized shapes, and the
// packed-vs-byte rows of BENCH_denoiser.json measure the packed kernels
// against these scalar loops. It lives under tests/ and is built into the
// cp_test_oracles library, which no production target links.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "squish/topology.h"

namespace cp::squish {

class ByteTopology {
 public:
  ByteTopology() = default;
  ByteTopology(int rows, int cols, std::uint8_t fill = 0);
  /// Unpack a packed topology into byte storage.
  explicit ByteTopology(const Topology& t);

  /// Pack back into the production representation.
  Topology packed() const;

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  std::uint8_t at(int r, int c) const { return data_[index(r, c)]; }
  void set(int r, int c, std::uint8_t v) { data_[index(r, c)] = v ? 1 : 0; }

  const std::uint8_t* data() const { return data_.data(); }
  std::uint8_t* data() { return data_.data(); }

  std::size_t popcount() const;
  double density() const;
  ByteTopology window(int r0, int c0, int r1, int c1) const;
  void paste(const ByteTopology& tile, int r0, int c0);
  ByteTopology transposed() const;
  ByteTopology flipped_horizontal() const;
  ByteTopology flipped_vertical() const;
  bool rows_equal(int a, int b) const;
  bool cols_equal(int a, int b) const;
  ByteTopology deduplicated() const;

  bool operator==(const ByteTopology&) const = default;

 private:
  std::size_t index(int r, int c) const { return static_cast<std::size_t>(r) * cols_ + c; }

  int rows_ = 0;
  int cols_ = 0;
  std::vector<std::uint8_t> data_;
};

}  // namespace cp::squish

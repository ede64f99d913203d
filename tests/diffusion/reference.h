#pragma once
// Byte-grid reference kernels for the packed diffusion fast paths.
//
// These are the pre-packing scalar implementations, retained on top of
// squish::ByteTopology as the executable specification and as the "before"
// side of the packed-vs-byte rows in BENCH_denoiser.json. They must stay
// semantically identical to the packed kernels in transition.cpp and
// tabular_denoiser.cpp; tests/diffusion/packed_parity_test.cpp enforces it.

#include "diffusion/schedule.h"
#include "tests/squish/reference.h"
#include "util/rng.h"

namespace cp::diffusion {

/// Scalar per-cell forward noising on the byte grid: one Bernoulli draw per
/// cell in row-major order (the same stream forward_noise consumes).
squish::ByteTopology reference_forward_noise(const squish::ByteTopology& x0,
                                             const NoiseSchedule& schedule, int k,
                                             util::Rng& rng);

/// Scalar 17-cell neighbourhood index on the byte grid with the tabular
/// denoiser's period-folding mirror.
int reference_neighborhood_index(const squish::ByteTopology& t, int r, int c);

/// Scalar run scan on one byte-grid row (the pre-packing drc::row_runs).
std::vector<std::pair<int, int>> reference_row_runs(const squish::ByteTopology& t, int r,
                                                    std::uint8_t value);

}  // namespace cp::diffusion

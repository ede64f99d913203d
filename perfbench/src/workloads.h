#pragma once
// The four workloads (README.md in this directory says why each exists).
// Every workload derives its request counts, sizes and rates from
// `seconds` alone, so a given --seconds always does the same amount of
// work; the seed changes only the content (RNG seeds and geometry).

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "squish/squish.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string serve_bin;   // chatpattern_serve to launch
  std::string workdir;     // scratch directory owned by this run
  std::string model_cache; // trained-model cache of the in-process oracle,
                           // named by run.py after the sources it depends on
};

void run_serve_cold(const RunConfig& cfg, Report& report);
void run_serve_hot(const RunConfig& cfg, Report& report);
void run_agent_freesize(const RunConfig& cfg, Report& report);
void run_library_ingest(const RunConfig& cfg, Report& report);

/// SplitMix64 of (seed, i): pseudo-random content from one run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t i);

/// The i-th request seed of a run: distinct for i < 100000 and below 2^53,
/// so it survives the JSON number round trip exactly.
std::uint64_t request_seed(std::uint64_t run_seed, std::uint64_t i);

/// Legality and diversity of a set of delivered patterns, each re-checked
/// with metrics::legality against drc::rules_for_style of its own style;
/// diversity is metrics::diversity over the legal topologies.
struct Quality {
  long long legal = 0;
  long long checked = 0;
  double diversity_bits = 0;
};
Quality quality_of(const std::vector<cp::squish::SquishPattern>& patterns,
                   const std::vector<std::string>& styles);

/// Peak resident set (VmHWM) of this process in MB.
double self_peak_rss_mb();

/// "abc..." hex of a 64-bit value.
std::string hex64(std::uint64_t v);

}  // namespace perfbench

// Statistical-equivalence harness for few-step sampling: the fast modes
// must match the full 1000-step chain on the paper's summary metrics, not
// just run faster. For a fixed seed set we draw N topologies with the full
// chain and with each fast kind at a 50-visited-step budget (K/20), then
// compare mean density, mean scan-line complexity (c_x + c_y) and library
// diversity (Definition 2). Deltas must stay inside the documented
// thresholds below; a failure prints the whole per-metric table so the
// drift is readable without rerunning.
//
// Threshold provenance: the tabular-denoiser fixture reproduces stripe data
// with density 0.5 and complexity ~8-16 per axis; across seeds the
// full-chain run itself moves ~half of each threshold, so the bounds are
// roughly 2x the sampler's own seed-to-seed noise — tight enough to catch a
// broken schedule (e.g. skipping all low-noise steps doubles complexity),
// loose enough to pass on healthy jitter.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "diffusion/sampler.h"
#include "diffusion/tabular_denoiser.h"
#include "diffusion/timestep_schedule.h"
#include "metrics/metrics.h"

namespace cp::diffusion {
namespace {

constexpr int kPatterns = 6;        // library size per mode
constexpr int kFastSteps = 50;      // K/20 visited-step budget
constexpr double kDensityTol = 0.12;
constexpr double kComplexityTol = 10.0;  // mean (c_x + c_y), grid is 32x32
constexpr double kDiversityTol = 1.6;    // nats, libraries of kPatterns

squish::Topology stripes(int n, int period) {
  squish::Topology t(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) t.set(r, c, (c / period) % 2);
  }
  return t;
}

struct LibraryStats {
  double density = 0.0;     // mean fill fraction
  double complexity = 0.0;  // mean c_x + c_y
  double diversity = 0.0;   // entropy of the (c_x, c_y) histogram
};

class FastQualityTest : public ::testing::Test {
 protected:
  FastQualityTest() : schedule_(ScheduleConfig{}), denoiser_(make_denoiser()) {}

  TabularDenoiser make_denoiser() {
    TabularConfig cfg;
    cfg.conditions = 1;
    cfg.draws_per_bucket = 3;
    TabularDenoiser d(schedule_, cfg);
    util::Rng rng(1);
    std::vector<squish::Topology> data;
    for (int p = 2; p <= 4; ++p) data.push_back(stripes(32, p));
    d.fit(data, 0, rng);
    return d;
  }

  std::vector<squish::Topology> draw_library(const DiffusionSampler& sampler,
                                             ScheduleKind kind, int steps) const {
    SampleConfig cfg;
    cfg.rows = 32;
    cfg.cols = 32;
    cfg.sample_steps = steps;
    cfg.schedule_kind = kind;
    cfg.polish_rounds = 1;
    std::vector<squish::Topology> lib;
    for (int i = 0; i < kPatterns; ++i) {
      util::Rng rng(100 + static_cast<std::uint64_t>(i));  // fixed seed set
      lib.push_back(sampler.sample(cfg, rng));
    }
    return lib;
  }

  static LibraryStats stats_of(const std::vector<squish::Topology>& lib) {
    LibraryStats s;
    for (const auto& t : lib) {
      const auto [cx, cy] = t.complexity();
      s.density += t.density();
      s.complexity += cx + cy;
    }
    s.density /= lib.size();
    s.complexity /= lib.size();
    s.diversity = metrics::diversity(lib);
    return s;
  }

  NoiseSchedule schedule_;
  TabularDenoiser denoiser_;
};

TEST_F(FastQualityTest, FewStepModesMatchFullChainStatistics) {
  DiffusionSampler sampler(schedule_, denoiser_);

  // Register a searched schedule so kSearched exercises its real path, not
  // the noise-uniform fallback. Small search config: the greedy loop with a
  // tabular denoiser is fast but not free.
  std::vector<std::vector<squish::Topology>> held_out(1);
  for (int p = 2; p <= 4; ++p) held_out[0].push_back(stripes(32, p));
  SearchConfig scfg;
  scfg.budget = kFastSteps;
  scfg.candidate_pool = 96;
  scfg.max_per_class = 2;
  scfg.probes = 1;
  sampler.set_searched_timesteps(
      search_timesteps(schedule_, denoiser_, held_out, scfg).timesteps);

  const LibraryStats full =
      stats_of(draw_library(sampler, ScheduleKind::kNoiseUniform, /*steps=*/0));

  struct Mode {
    ScheduleKind kind;
    LibraryStats stats;
  };
  std::vector<Mode> modes;
  for (ScheduleKind kind : {ScheduleKind::kNoiseUniform, ScheduleKind::kSearched}) {
    modes.push_back({kind, stats_of(draw_library(sampler, kind, kFastSteps))});
  }

  // Render the whole comparison table once; every assertion carries it so a
  // single failing metric still shows the full picture.
  std::ostringstream table;
  table << "\n  mode                 density  complexity  diversity\n";
  auto row = [&table](const std::string& name, const LibraryStats& s) {
    table << "  " << name << std::string(name.size() < 20 ? 20 - name.size() : 1, ' ')
          << s.density << "  " << s.complexity << "  " << s.diversity << "\n";
  };
  row("full-chain", full);
  for (const Mode& m : modes) row(std::string("fast-") + to_string(m.kind), m.stats);

  for (const Mode& m : modes) {
    const std::string name = to_string(m.kind);
    EXPECT_LE(std::abs(m.stats.density - full.density), kDensityTol)
        << name << " density drifted" << table.str();
    EXPECT_LE(std::abs(m.stats.complexity - full.complexity), kComplexityTol)
        << name << " complexity drifted" << table.str();
    EXPECT_LE(std::abs(m.stats.diversity - full.diversity), kDiversityTol)
        << name << " diversity drifted" << table.str();
    // The fast library must not collapse: all-empty or all-full grids would
    // pass a pure delta check if the full chain also broke, so pin absolute
    // sanity too.
    EXPECT_GT(m.stats.density, 0.2) << name << table.str();
    EXPECT_LT(m.stats.density, 0.8) << name << table.str();
  }
}

TEST_F(FastQualityTest, FewStepVisitsAtMostBudgetPlusTail) {
  // The quality above is bought with <= kFastSteps + 2 denoiser levels per
  // sample (vs 1000): pin the visited-step count the bench's speedup claim
  // rests on.
  const DiffusionSampler sampler(schedule_, denoiser_);
  const auto steps = sampler.make_timesteps(kFastSteps, ScheduleKind::kNoiseUniform);
  EXPECT_LE(steps.size(), static_cast<std::size_t>(kFastSteps) + 2);
  EXPECT_GE(steps.size(), static_cast<std::size_t>(kFastSteps) / 2);
}

}  // namespace
}  // namespace cp::diffusion

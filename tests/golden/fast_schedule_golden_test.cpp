// Golden pinning of the few-step visited-timestep logic: the exact
// noise-uniform lists TimestepSchedule::make builds for every budget, and
// the list the CascadeSampler's coarse stage walks. Any change to the
// placement math — however subtle — shows up here as a readable diff
// instead of as a silent quality regression three benches later.
// Regenerate intentionally with CP_UPDATE_GOLDEN=1 (see golden_compare.h).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "diffusion/cascade.h"
#include "diffusion/tabular_denoiser.h"
#include "diffusion/timestep_schedule.h"
#include "golden_compare.h"

namespace cp {
namespace {

void dump_steps(std::ostream& os, const std::string& label, const std::vector<int>& steps) {
  os << label << " (" << steps.size() << ") =";
  for (int k : steps) os << " " << k;
  os << "\n";
}

TEST(FastScheduleGoldenTest, TimestepPlacement) {
  std::stringstream ss;
  for (const auto& [name, cfg] :
       {std::pair<const char*, diffusion::ScheduleConfig>{"K100", {100, 0.01, 0.5}},
        std::pair<const char*, diffusion::ScheduleConfig>{"K1000-paper", {1000, 0.01, 0.5}}}) {
    const diffusion::NoiseSchedule s{cfg};
    ss << "== schedule " << name << " ==\n";
    for (int budget : {4, 10, 24}) {
      dump_steps(ss, "noise_uniform budget=" + std::to_string(budget),
                 diffusion::TimestepSchedule::make(s, s.steps(), budget));
    }
    // Partial chain, as modify_from uses it.
    dump_steps(ss, "noise_uniform from=40 budget=6", diffusion::TimestepSchedule::make(s, 40, 6));
    ss << "\n";
  }
  golden_compare("fast_schedules.txt", ss.str());
}

TEST(FastScheduleGoldenTest, CascadeVisitedSteps) {
  const diffusion::NoiseSchedule s{diffusion::ScheduleConfig{}};
  diffusion::TabularConfig tcfg;
  tcfg.conditions = 1;
  // Unfitted denoisers: the visited-step lists are pure schedule math and
  // must not depend on model state.
  const diffusion::TabularDenoiser coarse(s, tcfg);
  const diffusion::TabularDenoiser fine(s, tcfg);

  const diffusion::CascadeSampler cascade(s, coarse, fine, diffusion::CascadeConfig{});
  std::stringstream ss;
  ss << "== defaults ==\n";
  dump_steps(ss, "coarse", cascade.coarse_timesteps());
  ss << "\n";
  golden_compare("cascade_visited_steps.txt", ss.str());
}

}  // namespace
}  // namespace cp

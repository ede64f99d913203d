#include "diffusion/timestep_schedule.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>

#include "diffusion/transition.h"
#include "obs/registry.h"
#include "util/rng.h"

namespace cp::diffusion {

const char* to_string(ScheduleKind kind) {
  switch (kind) {
    case ScheduleKind::kNoiseUniform: return "noise_uniform";
    case ScheduleKind::kSearched: return "searched";
  }
  return "unknown";
}

ScheduleKind schedule_kind_from_string(const std::string& name) {
  if (name == "noise_uniform") return ScheduleKind::kNoiseUniform;
  if (name == "searched") return ScheduleKind::kSearched;
  throw std::invalid_argument("unknown schedule kind '" + name +
                              "' (want noise_uniform|searched)");
}

bool is_schedule_kind(const std::string& name) {
  return name == "noise_uniform" || name == "searched";
}

namespace {

std::vector<int> full_list(int k_max) {
  std::vector<int> steps(static_cast<std::size_t>(k_max) + 1);
  for (int i = 0; i <= k_max; ++i) steps[static_cast<std::size_t>(i)] = k_max - i;
  return steps;
}

/// Close a partially built descending list: append the mandatory final
/// noisy step 1 (unless already there) and the clean step 0.
void finish(std::vector<int>& steps) {
  if (steps.back() != 1) steps.push_back(1);
  steps.push_back(0);
}

std::vector<int> make_noise_uniform(const NoiseSchedule& schedule, int k_max, int count) {
  // Historical default (previously inlined in DiffusionSampler): visited
  // steps chosen so the cumulative flip probability decreases in equal
  // increments. Byte-compatible with the pre-TimestepSchedule code — the
  // existing goldens anchor on this exact list.
  std::vector<int> steps{k_max};
  const double top = schedule.cumulative_flip(k_max);
  for (int i = 1; i < count; ++i) {
    const double target = top * (1.0 - static_cast<double>(i) / count);
    const int k = schedule.step_for_flip(target);
    if (k >= 1 && k < steps.back()) steps.push_back(k);
  }
  finish(steps);
  return steps;
}

}  // namespace

std::vector<int> TimestepSchedule::make(const NoiseSchedule& schedule, int k_start, int count) {
  const int k_max = std::clamp(k_start, 1, schedule.steps());
  // Degenerate budget: the exact full chain. This is the stride-1 ==
  // full-chain invariant the goldens anchor on.
  if (count <= 0 || count >= k_max) return full_list(k_max);
  return make_noise_uniform(schedule, k_max, count);
}

void TimestepSchedule::validate(const std::vector<int>& steps, int k_max) {
  if (steps.size() < 2 || steps.back() != 0) {
    throw std::invalid_argument("timestep schedule must descend to 0");
  }
  if (steps.front() > k_max || steps.front() < 1) {
    throw std::invalid_argument("timestep schedule starts outside [1, K]");
  }
  for (std::size_t i = 1; i < steps.size(); ++i) {
    if (steps[i] >= steps[i - 1]) {
      throw std::invalid_argument("timestep schedule must be strictly decreasing");
    }
  }
}

std::vector<int> TimestepSchedule::restrict_to(const std::vector<int>& steps, int k_start) {
  std::vector<int> out;
  for (int k : steps) {
    if (k <= k_start) {
      if (out.empty() && k != k_start) out.push_back(k_start);
      out.push_back(k);
    }
  }
  if (out.empty()) out.push_back(k_start);
  if (out.back() != 0) {
    if (out.back() != 1) out.push_back(1);
    out.push_back(0);
  }
  return out;
}

// ---- greedy schedule search ------------------------------------------------

namespace {

constexpr double kEps = 1e-7;

inline double safe_log(double p) { return std::log(std::clamp(p, kEps, 1.0)); }

/// Forward-noised draws at one level, with the model's x0 belief attached.
/// Built once per level; every jump cost starting at that level reuses it.
struct Draw {
  const squish::Topology* x0 = nullptr;
  squish::Topology xa;
  ProbGrid p0;
};

struct ProbeCache {
  const NoiseSchedule* schedule;
  const Denoiser* denoiser;
  const std::vector<std::vector<squish::Topology>>* held_out;
  SearchConfig config;
  std::map<int, std::vector<Draw>> by_level;

  const std::vector<Draw>& draws(int level) {
    auto it = by_level.find(level);
    if (it != by_level.end()) return it->second;
    std::vector<Draw> out;
    const int classes = static_cast<int>(held_out->size());
    for (int c = 0; c < classes; ++c) {
      const auto& topos = (*held_out)[static_cast<std::size_t>(c)];
      const int take = std::min<int>(config.max_per_class, static_cast<int>(topos.size()));
      for (int t = 0; t < take; ++t) {
        for (int p = 0; p < config.probes; ++p) {
          // Seed from (level, class, topo, probe) only: the draw is the
          // same no matter in which greedy iteration it is first needed.
          std::uint64_t s = config.seed;
          for (std::uint64_t v : {static_cast<std::uint64_t>(level), static_cast<std::uint64_t>(c),
                                  static_cast<std::uint64_t>(t), static_cast<std::uint64_t>(p)}) {
            s ^= v + 0x9e3779b97f4a7c15ULL + (s << 6) + (s >> 2);
          }
          util::Rng rng(s);
          Draw d;
          d.x0 = &topos[static_cast<std::size_t>(t)];
          d.xa = forward_noise(*d.x0, *schedule, level, rng);
          // The class index doubles as the condition label throughout the
          // repo (dataset::style_index ordering).
          denoiser->predict_x0(d.xa, level, c, d.p0);
          out.push_back(std::move(d));
        }
      }
    }
    return by_level.emplace(level, std::move(out)).first->second;
  }
};

/// Mean per-pixel hybrid loss of the composed reverse jump a -> b: exact KL
/// between q(x_b | x_a, x_0) and the model-marginalised reverse kernel,
/// plus lambda * BCE of the x0 belief (Equation 10 on the visited subset).
double jump_cost(ProbeCache& cache, int a, int b) {
  const double flip_0b = cache.schedule->cumulative_flip(b);
  const double flip_ba = cache.schedule->flip_between(b, a);
  double total = 0.0;
  long long pixels = 0;
  for (const Draw& d : cache.draws(a)) {
    std::size_t i = 0;
    for (int r = 0; r < d.xa.rows(); ++r) {
      for (int c = 0; c < d.xa.cols(); ++c, ++i) {
        const int xa = d.xa.at(r, c);
        const int x0 = d.x0->at(r, c);
        const double q1 = posterior_p1(xa, x0, flip_0b, flip_ba);
        const double p1 = reverse_p1(xa, static_cast<double>(d.p0[i]), flip_0b, flip_ba);
        const double kl = q1 * (safe_log(q1) - safe_log(p1)) +
                          (1.0 - q1) * (safe_log(1.0 - q1) - safe_log(1.0 - p1));
        const double ce = x0 ? -safe_log(d.p0[i]) : -safe_log(1.0 - d.p0[i]);
        total += kl + static_cast<double>(cache.config.lambda) * ce;
      }
    }
    pixels += d.xa.size();
  }
  return pixels > 0 ? total / static_cast<double>(pixels) : 0.0;
}

}  // namespace

SearchResult search_timesteps(const NoiseSchedule& schedule, const Denoiser& denoiser,
                              const std::vector<std::vector<squish::Topology>>& held_out,
                              const SearchConfig& config) {
  const int K = schedule.steps();
  const int budget = std::clamp(config.budget, 2, K);
  SearchResult result;
  if (budget >= K) {
    result.timesteps = TimestepSchedule::make(schedule, K, 0);
    return result;
  }
  bool have_data = false;
  for (const auto& topos : held_out) have_data = have_data || !topos.empty();
  if (!have_data) throw std::invalid_argument("search_timesteps: empty held-out set");

  ProbeCache cache{&schedule, &denoiser, &held_out, config, {}};
  std::map<std::pair<int, int>, double> costs;  // (from, to) -> jump cost
  auto cost = [&](int from, int to) {
    const auto key = std::make_pair(from, to);
    auto it = costs.find(key);
    if (it != costs.end()) return it->second;
    const double c = jump_cost(cache, from, to);
    costs.emplace(key, c);
    return c;
  };

  // Candidate insertion grid: a dense noise-uniform list (interior values
  // only) — candidates where the flip probability actually moves.
  const std::vector<int> grid =
      TimestepSchedule::make(schedule, K, std::min(config.candidate_pool, K - 1));
  std::vector<int> chosen = {K, 1, 0};
  auto in_chosen = [&](int k) {
    return std::find(chosen.begin(), chosen.end(), k) != chosen.end();
  };

  for (std::size_t i = 0; i + 1 < chosen.size(); ++i) {
    result.initial_loss += cost(chosen[i], chosen[i + 1]);
  }

  // chosen holds budgeted noisy steps {K, ..., 1} plus the final 0.
  while (static_cast<int>(chosen.size()) - 1 < budget) {
    int best = -1;
    double best_delta = std::numeric_limits<double>::infinity();
    for (int k : grid) {
      if (k <= 0 || k >= K || in_chosen(k)) continue;
      // Enclosing jump: chosen is kept descending, so the insertion point
      // is the unique (above, below) pair with above > k > below.
      const auto lo = std::lower_bound(chosen.begin(), chosen.end(), k, std::greater<int>());
      const int above = *(lo - 1);
      const int below = *lo;
      const double delta = cost(above, k) + cost(k, below) - cost(above, below);
      if (delta < best_delta) {
        best_delta = delta;
        best = k;
      }
    }
    if (best < 0) break;  // candidate grid exhausted
    chosen.insert(std::lower_bound(chosen.begin(), chosen.end(), best, std::greater<int>()),
                  best);
    obs::count("sampler/search_insertions");
  }

  for (std::size_t i = 0; i + 1 < chosen.size(); ++i) {
    result.final_loss += cost(chosen[i], chosen[i + 1]);
  }
  TimestepSchedule::validate(chosen, K);
  result.timesteps = std::move(chosen);
  return result;
}

}  // namespace cp::diffusion

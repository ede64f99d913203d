#pragma once
// Visited-timestep schedules for few-step (fast) reverse sampling, after
// DiffPattern-Flex: the reverse chain may jump between an arbitrary
// strictly-decreasing subset of {K, ..., 1, 0} because the two-state channel
// composes in closed form (NoiseSchedule::flip_between / composed_jumps in
// transition.h) — striding is *exact* in the transition algebra and only
// trades model-evaluation density for speed.
//
// Two ways to pick the subset:
//   * kNoiseUniform — equal decrements of cumulative flip probability (the
//     default; spends the budget where structure forms).
//   * kSearched — a data-driven list built offline by search_timesteps(),
//     which greedily inserts the step that most reduces the held-out D3PM
//     hybrid loss accumulated over the schedule's jumps.
//
// Invariant (the regression anchor of every golden): the degenerate budget
// — count <= 0 or count >= k_start — yields the full list {k_start, ..., 0}
// for both kinds, so "fast sampling at stride 1" is bit-identical to the
// original full chain. tests/diffusion/fast_sampler_test.cpp locks this in.

#include <string>
#include <vector>

#include "diffusion/denoiser.h"
#include "diffusion/schedule.h"

namespace cp::diffusion {

enum class ScheduleKind {
  kNoiseUniform = 0,
  kSearched,
};

const char* to_string(ScheduleKind kind);

/// Parse "noise_uniform" | "searched" (case sensitive). Throws
/// std::invalid_argument on anything else.
ScheduleKind schedule_kind_from_string(const std::string& name);

/// True when `name` parses (used by serving-layer request validation).
bool is_schedule_kind(const std::string& name);

struct TimestepSchedule {
  /// Build the noise-uniform descending visited list {k_start, ..., 1, 0}
  /// with ~`count` visited noisy steps. count <= 0 or count >= k_start
  /// gives the full chain (the stride-1 invariant). kSearched has no closed
  /// form; DiffusionSampler resolves it against its registered searched
  /// list and falls back to this list.
  static std::vector<int> make(const NoiseSchedule& schedule, int k_start, int count);

  /// Throws std::invalid_argument unless `steps` is strictly decreasing,
  /// starts at <= k_max, and ends at 0 with at least one noisy step.
  static void validate(const std::vector<int>& steps, int k_max);

  /// Restrict a (validated) schedule to levels <= k_start, prepending
  /// k_start itself when absent — how a searched full-chain schedule is
  /// reused from an intermediate noise level (cascade refinement, polish,
  /// masked modification).
  static std::vector<int> restrict_to(const std::vector<int>& steps, int k_start);
};

/// Greedy schedule search (DiffPattern-Flex style, scored on data instead of
/// distilled): grows {K, 1, 0} by repeatedly inserting the candidate step
/// whose split of its enclosing jump most reduces the summed held-out
/// hybrid loss (KL of the composed posterior vs the model-marginalised
/// reverse kernel, plus lambda * BCE of the x0 prediction — Equation (10)
/// restricted to the visited jumps).
struct SearchConfig {
  int budget = 50;           // visited noisy steps in the result (>= 2)
  int candidate_pool = 128;  // size of the noise-uniform insertion grid
  int max_per_class = 4;     // held-out topologies consulted per class
  int probes = 2;            // forward-noisings per (level, topology)
  float lambda = 1e-3f;      // CE weight, the paper's hybrid-loss default
  std::uint64_t seed = 17;   // drives the probe noisings only
};

struct SearchResult {
  std::vector<int> timesteps;  // descending, ends {..., 1, 0}
  double initial_loss = 0.0;   // summed jump loss of the {K, 1, 0} seed
  double final_loss = 0.0;     // summed jump loss of the returned schedule
};

SearchResult search_timesteps(const NoiseSchedule& schedule, const Denoiser& denoiser,
                              const std::vector<std::vector<squish::Topology>>& held_out,
                              const SearchConfig& config);

}  // namespace cp::diffusion

#pragma once
// The ChatPattern facade: the one-stop public API of the library.
//
// Construction assembles and trains the whole stack — synthetic datasets for
// every style, the conditional discrete diffusion model (tabular denoiser by
// default), the per-style legalizers, the tool registry and the agent — so a
// downstream user can do:
//
//   cp::core::ChatPattern chat(cp::core::ChatPatternConfig{});
//   auto report = chat.customize(
//       "Generate 50 patterns of 256x256 in Layer-10003 style.");
//   cp::core::PatternLibrary lib = chat.library_of(report.subtasks[0]);
//
// The lower-level handles (sampler, legalizer, datasets) are exposed for
// benchmarking and research use.

#include <memory>
#include <string>
#include <vector>

#include "agent/chat_session.h"
#include "core/pattern_library.h"
#include "dataset/builder.h"
#include "diffusion/cascade.h"
#include "diffusion/trainer.h"

namespace cp::core {

struct ChatPatternConfig {
  int window = 128;            // model size L
  int diffusion_steps = 1000;  // K (paper value; sampling is strided)
  diffusion::CascadeConfig cascade;  // coarse-to-fine sampling parameters
  int train_clips_per_class = 160;
  int draws_per_bucket = 2;    // tabular-denoiser training draws
  int time_buckets = 8;
  geometry::Coord window_nm = 2048;  // physical size of one window
  std::uint64_t seed = 1;
  /// When non-empty, the trained denoisers are cached here: if the file
  /// exists and is compatible it is loaded instead of re-fitting, otherwise
  /// it is written after training (warm restarts for repeated runs).
  std::string model_cache_path;
};

class ChatPattern {
 public:
  explicit ChatPattern(const ChatPatternConfig& config);

  /// Natural-language front door (Figures 1 and 4).
  agent::SessionReport customize(const std::string& request);

  /// Collect the legalized patterns a sub-task produced.
  PatternLibrary library_of(const agent::SubtaskReport& subtask) const;

  // ---- research-grade direct access ----
  const diffusion::TopologyGenerator& sampler() const { return *sampler_; }
  /// Single-resolution sampler over the fine denoiser (ablations, tests).
  const diffusion::DiffusionSampler& fine_sampler() const { return sampler_->fine_sampler(); }
  const legalize::Legalizer& legalizer(int style) const { return *legalizers_.at(style); }
  const dataset::Dataset& training_set(int style) const {
    return training_sets_.at(static_cast<std::size_t>(style));
  }
  const diffusion::NoiseSchedule& schedule() const { return *schedule_; }
  agent::PatternStore& store() { return *store_; }
  agent::ExperienceStore& experience() { return *experience_; }
  const agent::ToolRegistry& tools() const { return *tools_; }
  const ChatPatternConfig& config() const { return config_; }

  /// Physical nm per topology cell at the native scale.
  geometry::Coord nm_per_cell() const { return config_.window_nm / config_.window; }

 private:
  ChatPatternConfig config_;
  std::vector<dataset::Dataset> training_sets_;
  std::unique_ptr<diffusion::NoiseSchedule> schedule_;
  std::unique_ptr<diffusion::TabularDenoiser> denoiser_;         // fine resolution
  std::unique_ptr<diffusion::TabularDenoiser> coarse_denoiser_;  // 1/factor resolution
  std::unique_ptr<diffusion::CascadeSampler> sampler_;
  std::vector<std::unique_ptr<legalize::Legalizer>> legalizers_;
  std::unique_ptr<agent::PatternStore> store_;
  std::unique_ptr<agent::ExperienceStore> experience_;
  std::unique_ptr<agent::ToolRegistry> tools_;
  std::unique_ptr<agent::ChatSession> session_;
};

}  // namespace cp::core

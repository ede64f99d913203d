#pragma once
// Timing decorators for the traced run. Each wraps one public layer
// interface, forwards every call unchanged (including thread_safe(), so the
// program's parallelism is the same with and without tracing) and adds the
// call's wall time to a named accumulator. They live in the benchmark, not
// in the program: the untraced run never sees them.

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "agent/llm_client.h"
#include "agent/tools.h"
#include "diffusion/generator.h"

namespace perfbench {

/// Thread-safe per-name call counts and busy time.
class Accumulator {
 public:
  struct Stat {
    long long calls = 0;
    double total = 0;  // summed wall ms (or summed value for counters)
  };
  void add(const std::string& name, double ms);
  Stat get(const std::string& name) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Stat> stats_;
};

/// RAII wall-time measurement into an accumulator.
class ScopedTimer {
 public:
  ScopedTimer(Accumulator& acc, std::string name)
      : acc_(acc), name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Accumulator& acc_;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
};

/// diffusion::TopologyGenerator decorator: "diffusion.sample" and
/// "diffusion.modify", plus "diffusion.in.<tool>" while a TimedTools call of
/// that tool is running on the same thread (for tool self time).
class TimedGenerator : public cp::diffusion::TopologyGenerator {
 public:
  TimedGenerator(const cp::diffusion::TopologyGenerator& inner, Accumulator& acc)
      : inner_(inner), acc_(acc) {}

  cp::squish::Topology sample(const cp::diffusion::SampleConfig& config,
                              cp::util::Rng& rng) const override;
  cp::squish::Topology modify(const cp::squish::Topology& known,
                              const cp::squish::Topology& keep_mask,
                              const cp::diffusion::ModifyConfig& config,
                              cp::util::Rng& rng) const override;
  const char* name() const override { return inner_.name(); }
  bool thread_safe() const override { return inner_.thread_safe(); }

 private:
  void record(const char* what, double ms) const;

  const cp::diffusion::TopologyGenerator& inner_;
  Accumulator& acc_;
};

/// agent::AgentBrain decorator: "agent.format" and "agent.decide".
class TimedBrain : public cp::agent::AgentBrain {
 public:
  TimedBrain(std::unique_ptr<cp::agent::AgentBrain> inner, Accumulator& acc)
      : inner_(std::move(inner)), acc_(acc) {}

  std::vector<cp::agent::RequirementList> format_requirements(
      const std::string& request, std::vector<std::string>* notes) override;
  cp::agent::AgentAction decide(const cp::agent::AgentContext& context) override;
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<cp::agent::AgentBrain> inner_;
  Accumulator& acc_;
};

/// A copy of `tools` whose every tool is timed as "tool.<name>"; failed
/// tool results also count "tool.<name>.failed".
cp::agent::ToolRegistry timed_tools(const cp::agent::ToolRegistry& tools, Accumulator& acc);

double ms_since(std::chrono::steady_clock::time_point start);

}  // namespace perfbench

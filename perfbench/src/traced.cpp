#include "traced.h"

namespace perfbench {

namespace {

// Name of the tool running on this thread ("" outside any tool call).
thread_local std::string current_tool;

}  // namespace

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

void Accumulator::add(const std::string& name, double ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  Stat& s = stats_[name];
  ++s.calls;
  s.total += ms;
}

Accumulator::Stat Accumulator::get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = stats_.find(name);
  return it == stats_.end() ? Stat{} : it->second;
}

ScopedTimer::~ScopedTimer() { acc_.add(name_, ms_since(start_)); }

void TimedGenerator::record(const char* what, double ms) const {
  acc_.add(what, ms);
  if (!current_tool.empty()) acc_.add("diffusion.in." + current_tool, ms);
}

cp::squish::Topology TimedGenerator::sample(const cp::diffusion::SampleConfig& config,
                                            cp::util::Rng& rng) const {
  const auto start = std::chrono::steady_clock::now();
  cp::squish::Topology out = inner_.sample(config, rng);
  record("diffusion.sample", ms_since(start));
  return out;
}

cp::squish::Topology TimedGenerator::modify(const cp::squish::Topology& known,
                                            const cp::squish::Topology& keep_mask,
                                            const cp::diffusion::ModifyConfig& config,
                                            cp::util::Rng& rng) const {
  const auto start = std::chrono::steady_clock::now();
  cp::squish::Topology out = inner_.modify(known, keep_mask, config, rng);
  record("diffusion.modify", ms_since(start));
  return out;
}

std::vector<cp::agent::RequirementList> TimedBrain::format_requirements(
    const std::string& request, std::vector<std::string>* notes) {
  const ScopedTimer timer(acc_, "agent.format");
  return inner_->format_requirements(request, notes);
}

cp::agent::AgentAction TimedBrain::decide(const cp::agent::AgentContext& context) {
  const ScopedTimer timer(acc_, "agent.decide");
  return inner_->decide(context);
}

cp::agent::ToolRegistry timed_tools(const cp::agent::ToolRegistry& tools, Accumulator& acc) {
  cp::agent::ToolRegistry out;
  for (const std::string& name : tools.names()) {
    const cp::agent::ToolSpec& spec = tools.spec(name);
    cp::agent::ToolFn inner = spec.fn;
    out.register_tool(cp::agent::ToolSpec{
        spec.name, spec.documentation,
        [inner, name, &acc](const cp::util::Json& args) {
          const std::string outer = current_tool;
          current_tool = name;
          const auto start = std::chrono::steady_clock::now();
          cp::agent::ToolResult r = inner(args);
          acc.add("tool." + name, ms_since(start));
          current_tool = outer;
          if (!r.ok) acc.add("tool." + name + ".failed", 0);
          if (r.ok && r.payload.contains("model_calls")) {
            acc.add("extension.model_calls",
                    static_cast<double>(r.payload.get_int("model_calls", 0)));
          }
          return r;
        }});
  }
  return out;
}

}  // namespace perfbench

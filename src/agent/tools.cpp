#include "agent/tools.h"

#include <stdexcept>

#include "dataset/style.h"
#include "diffusion/timestep_schedule.h"
#include "util/strings.h"

namespace cp::agent {

std::string PatternStore::put_topology(squish::Topology t) {
  std::string id = "topo-" + std::to_string(next_id_++);
  topologies_.emplace(id, std::move(t));
  return id;
}

std::string PatternStore::put_pattern(squish::SquishPattern p) {
  std::string id = "pat-" + std::to_string(next_id_++);
  patterns_.emplace(id, std::move(p));
  return id;
}

const squish::Topology& PatternStore::topology(const std::string& id) const {
  auto it = topologies_.find(id);
  if (it == topologies_.end()) throw std::out_of_range("PatternStore: no topology " + id);
  return it->second;
}

squish::Topology& PatternStore::topology(const std::string& id) {
  auto it = topologies_.find(id);
  if (it == topologies_.end()) throw std::out_of_range("PatternStore: no topology " + id);
  return it->second;
}

const squish::SquishPattern& PatternStore::pattern(const std::string& id) const {
  auto it = patterns_.find(id);
  if (it == patterns_.end()) throw std::out_of_range("PatternStore: no pattern " + id);
  return it->second;
}

void ToolRegistry::register_tool(ToolSpec spec) {
  tools_[spec.name] = std::move(spec);
}

const ToolSpec& ToolRegistry::spec(const std::string& name) const {
  auto it = tools_.find(name);
  if (it == tools_.end()) throw std::out_of_range("ToolRegistry: no tool " + name);
  return it->second;
}

std::vector<std::string> ToolRegistry::names() const {
  std::vector<std::string> out;
  for (const auto& [name, spec] : tools_) out.push_back(name);
  return out;
}

ToolResult ToolRegistry::call(const std::string& name, const util::Json& args) const {
  auto it = tools_.find(name);
  if (it == tools_.end()) {
    ToolResult r;
    r.payload["error"] = "unknown tool '" + name + "'";
    return r;
  }
  try {
    return it->second.fn(args);
  } catch (const std::exception& e) {
    ToolResult r;
    r.payload["error"] = std::string("tool exception: ") + e.what();
    return r;
  }
}

namespace {

int condition_of(const util::Json& args) {
  const std::string style = args.get_string("style", "Layer-10001");
  const int idx = dataset::style_index(style);
  if (idx < 0) throw std::invalid_argument("unknown style '" + style + "'");
  return idx;
}

/// Optional "schedule" argument shared by the sampling tools; empty =
/// noise-uniform (the default placement). Throws on an unknown name.
diffusion::ScheduleKind schedule_of(const util::Json& args) {
  const std::string name = args.get_string("schedule", "");
  if (name.empty()) return diffusion::ScheduleKind::kNoiseUniform;
  return diffusion::schedule_kind_from_string(name);
}

util::Json topology_summary(const squish::Topology& t) {
  const auto [cx, cy] = t.complexity();
  util::Json j;
  j["rows"] = t.rows();
  j["cols"] = t.cols();
  j["complexity_x"] = cx;
  j["complexity_y"] = cy;
  j["density"] = t.density();
  return j;
}

}  // namespace

ToolRegistry make_standard_tools(GeneratorBackend backend) {
  if (backend.sampler == nullptr || backend.store == nullptr || backend.legalizers.empty()) {
    throw std::invalid_argument("make_standard_tools: incomplete backend");
  }
  auto shared = std::make_shared<GeneratorBackend>(std::move(backend));
  ToolRegistry registry;

  registry.register_tool(ToolSpec{
      "topology_generation",
      "Random Topology Generation: samples a new topology matrix with the "
      "conditional diffusion model. Args: style (Layer-10001|Layer-10003), "
      "rows, cols (<= model window), seed, steps, schedule (noise_uniform|"
      "searched; fast-sampling timestep placement). "
      "Returns topology_id and summary statistics; the matrix itself stays "
      "in the store.",
      [shared](const util::Json& args) {
        ToolResult r;
        const int cond = condition_of(args);
        diffusion::SampleConfig sc;
        sc.rows = static_cast<int>(args.get_int("rows", shared->window));
        sc.cols = static_cast<int>(args.get_int("cols", shared->window));
        sc.condition = cond;
        sc.sample_steps = static_cast<int>(args.get_int("steps", 16));
        sc.schedule_kind = schedule_of(args);
        if (sc.rows > shared->window || sc.cols > shared->window) {
          r.payload["error"] = util::format(
              "requested size %dx%d exceeds the model window %d; use topology_extension",
              sc.rows, sc.cols, shared->window);
          return r;
        }
        const std::uint64_t seed =
            static_cast<std::uint64_t>(args.get_int("seed", 1)) ^ shared->seed_mix;
        if (shared->server != nullptr) {
          // Serving path: the request lifecycle (queue, batching, cache)
          // wraps the diffusion call. Repeated generation with the same
          // arguments is a cache hit and skips diffusion entirely.
          serve::GenerationRequest req;
          req.id = "tool-gen-" + std::to_string(shared->store->topology_count()) + "-" +
                   std::to_string(seed);
          req.style = args.get_string("style", "Layer-10001");
          req.count = 1;
          req.rows = sc.rows;
          req.cols = sc.cols;
          req.sample_steps = sc.sample_steps;
          req.polish_rounds = sc.polish_rounds;
          req.schedule = args.get_string("schedule", "");
          req.seed = seed;
          req.legalize = false;  // this tool delivers a raw topology
          serve::Server::Submitted submitted = shared->server->submit(std::move(req));
          serve::GenerationResult res = submitted.result.get();
          if (res.payload == nullptr || res.payload->topologies.empty()) {
            r.payload["error"] = "serving layer returned no topology (" +
                                 std::string(serve::to_string(res.status)) +
                                 (res.reason.empty() ? "" : ": " + res.reason) + ")";
            return r;
          }
          squish::Topology t = res.payload->topologies.front();
          r.payload = topology_summary(t);
          r.payload["topology_id"] = shared->store->put_topology(std::move(t));
          r.payload["served"] = true;
          r.payload["cache_hit"] = res.cache_hit;
          r.ok = true;
          return r;
        }
        util::Rng rng(seed);
        squish::Topology t = shared->sampler->sample(sc, rng);
        r.payload = topology_summary(t);
        r.payload["topology_id"] = shared->store->put_topology(std::move(t));
        r.ok = true;
        return r;
      }});

  registry.register_tool(ToolSpec{
      "topology_extension",
      "Topology Extension: grows a topology to a target size with "
      "In-Painting or Out-Painting. Args: topology_id (optional; omit to "
      "grow from a fresh sample), target_rows, target_cols, method (Out|In), "
      "stride, style, seed, steps, schedule (noise_uniform|searched). Returns "
      "a new topology_id.",
      [shared](const util::Json& args) {
        ToolResult r;
        const int cond = condition_of(args);
        extension::ExtensionConfig ec;
        ec.window = shared->window;
        ec.stride = static_cast<int>(args.get_int("stride", shared->default_stride));
        ec.condition = cond;
        ec.sample_steps = static_cast<int>(args.get_int("steps", 16));
        ec.schedule_kind = schedule_of(args);
        const int rows = static_cast<int>(args.get_int("target_rows", shared->window));
        const int cols = static_cast<int>(args.get_int("target_cols", shared->window));
        const extension::Method method =
            extension::method_from_string(args.get_string("method", "Out"));
        squish::Topology seed;
        const std::string seed_id = args.get_string("topology_id", "");
        if (!seed_id.empty()) seed = shared->store->topology(seed_id);
        util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)) ^ shared->seed_mix);
        extension::ExtensionResult res =
            extension::extend(*shared->sampler, method, seed, rows, cols, ec, rng);
        r.payload = topology_summary(res.topology);
        r.payload["model_calls"] = res.model_calls;
        r.payload["method"] = extension::to_string(method);
        r.payload["topology_id"] = shared->store->put_topology(std::move(res.topology));
        r.ok = true;
        return r;
      }});

  registry.register_tool(ToolSpec{
      "topology_legalization",
      "Topology Legalization: assigns geometry vectors so the pattern is "
      "DRC-clean for the style's rules (DiffPattern's f_R(F, T)). Args: "
      "topology_id, width_nm, height_nm, style. On success returns "
      "pattern_id; on failure returns the offending region (upper/left/"
      "bottom/right in cell coordinates) and a log line.",
      [shared](const util::Json& args) {
        ToolResult r;
        const int cond = condition_of(args);
        const auto& topo = shared->store->topology(args.at("topology_id").as_string());
        const auto width = args.get_int("width_nm", 2048);
        const auto height = args.get_int("height_nm", 2048);
        const legalize::LegalizeResult res =
            shared->legalizers[static_cast<std::size_t>(cond)]->legalize(topo, width, height);
        if (!res.ok()) {
          const legalize::LegalizeFailure& f = *res.failure;
          r.payload["error"] = "legalization_failed";
          r.payload["log"] = f.message;
          r.payload["axis"] = std::string(1, f.axis);
          util::Json region;
          region["upper"] = f.row0;
          region["left"] = f.col0;
          region["bottom"] = f.row1;
          region["right"] = f.col1;
          r.payload["region"] = region;
          return r;
        }
        r.payload["pattern_id"] = shared->store->put_pattern(*res.pattern);
        r.payload["legal"] = true;
        r.ok = true;
        return r;
      }});

  registry.register_tool(ToolSpec{
      "topology_modification",
      "Topology Modification: re-generates the cell region [upper,bottom) x "
      "[left,right) of a topology with the masked reverse process (Eq. 12), "
      "keeping everything else. A time-efficient alternative to discarding a "
      "failed topology. Args: topology_id, upper, left, bottom, right, "
      "style, seed, steps, schedule (noise_uniform|searched). Returns a new "
      "topology_id.",
      [shared](const util::Json& args) {
        ToolResult r;
        const int cond = condition_of(args);
        const auto& topo = shared->store->topology(args.at("topology_id").as_string());
        const int upper = static_cast<int>(args.get_int("upper", 0));
        const int left = static_cast<int>(args.get_int("left", 0));
        const int bottom = static_cast<int>(args.get_int("bottom", topo.rows()));
        const int right = static_cast<int>(args.get_int("right", topo.cols()));
        if (upper < 0 || left < 0 || bottom > topo.rows() || right > topo.cols() ||
            upper >= bottom || left >= right) {
          r.payload["error"] = util::format(
              "bad region [%d,%d)x[%d,%d) for %dx%d topology", upper, bottom, left, right,
              topo.rows(), topo.cols());
          return r;
        }
        squish::Topology keep(topo.rows(), topo.cols(), 1);
        for (int rr = upper; rr < bottom; ++rr) {
          for (int cc = left; cc < right; ++cc) keep.set(rr, cc, 0);
        }
        diffusion::ModifyConfig mc;
        mc.condition = cond;
        mc.sample_steps = static_cast<int>(args.get_int("steps", 16));
        mc.schedule_kind = schedule_of(args);
        util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)) ^ shared->seed_mix);
        squish::Topology modified = shared->sampler->modify(topo, keep, mc, rng);
        r.payload = topology_summary(modified);
        r.payload["topology_id"] = shared->store->put_topology(std::move(modified));
        r.ok = true;
        return r;
      }});

  if (shared->library != nullptr) {
    registry.register_tool(ToolSpec{
        "library_retrieval",
        "Library Retrieval: queries the persistent pattern library for "
        "previously ingested or generated DRC-ready patterns instead of "
        "sampling new ones. Args: style_tag ('*' = any), count, min_density, "
        "max_density, layer (-1 = any). Returns pattern_id references into "
        "the session store plus per-pattern summaries; the matrices stay "
        "server-side.",
        [shared](const util::Json& args) {
          ToolResult r;
          pattlib::Query q;
          const std::string tag = args.get_string("style_tag", "*");
          if (tag != "*") q.style_tag = tag;
          q.limit = args.get_int("count", 4);
          q.min_density = args.get_number("min_density", 0.0);
          q.max_density = args.get_number("max_density", 1.0);
          q.layer = static_cast<int>(args.get_int("layer", -1));
          const std::vector<std::uint64_t> ids = shared->library->query(q);
          util::JsonArray found;
          for (const std::uint64_t id : ids) {
            const pattlib::StoredPattern& e = shared->library->at(id);
            util::Json item = topology_summary(e.pattern.topology);
            item["pattern_id"] = shared->store->put_pattern(e.pattern);
            item["style_tag"] = e.meta.style_tag;
            item["drc"] = std::string(pattlib::to_string(e.meta.drc));
            found.push_back(std::move(item));
          }
          r.payload["patterns"] = util::Json(std::move(found));
          r.payload["matched"] = ids.size();
          r.payload["library_size"] = shared->library->size();
          r.ok = true;
          return r;
        }});
  }

  registry.register_tool(ToolSpec{
      "topology_analysis",
      "Topology Analysis: reports size, complexity (c_x, c_y) and density of "
      "a stored topology without exposing the matrix. Args: topology_id.",
      [shared](const util::Json& args) {
        ToolResult r;
        const auto& topo = shared->store->topology(args.at("topology_id").as_string());
        r.payload = topology_summary(topo);
        r.payload["topology_id"] = args.at("topology_id").as_string();
        r.ok = true;
        return r;
      }});

  return registry;
}

}  // namespace cp::agent

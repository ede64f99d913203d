#include "serve/request.h"

#include <climits>
#include <cmath>
#include <stdexcept>

#include "dataset/style.h"
#include "diffusion/timestep_schedule.h"
#include "util/rng.h"
#include "util/strings.h"

namespace cp::serve {

namespace {

/// Avalanche-mix one 64-bit word into the running hash state.
std::uint64_t mix(std::uint64_t state, std::uint64_t value) {
  state ^= value + 0x9e3779b97f4a7c15ULL + (state << 6) + (state >> 2);
  util::splitmix64(state);  // avalanche round; advances state in place
  return state;
}

std::uint64_t mix_string(std::uint64_t state, const std::string& s) {
  state = mix(state, static_cast<std::uint64_t>(s.size()));
  for (unsigned char c : s) state = mix(state, c);
  return state;
}

/// An int-typed field, rounded as Json::as_int rounds. A value outside int
/// range is rejected rather than narrowed: narrowing would serve (and cache)
/// the request as a different one.
int get_int_field(const util::Json& j, const char* key, int fallback) {
  const double v = std::round(j.get_number(key, fallback));
  if (!(v >= INT_MIN && v <= INT_MAX)) {
    throw std::invalid_argument(std::string("'") + key + "' is outside int range");
  }
  return static_cast<int>(v);
}

}  // namespace

std::uint64_t GenerationRequest::content_hash() const {
  std::uint64_t h = 0x43503a7365727665ULL;  // "CP:serve"
  h = mix_string(h, style);
  h = mix(h, static_cast<std::uint64_t>(count));
  h = mix(h, static_cast<std::uint64_t>(rows));
  h = mix(h, static_cast<std::uint64_t>(cols));
  h = mix(h, static_cast<std::uint64_t>(sample_steps));
  h = mix(h, static_cast<std::uint64_t>(polish_rounds));
  h = mix_string(h, schedule);
  // Requests used to carry a precision field here. Mixing its only accepted
  // value keeps every content hash, cache key and shard placement stable.
  h = mix_string(h, "fp32");
  h = mix(h, static_cast<std::uint64_t>(width_nm));
  h = mix(h, static_cast<std::uint64_t>(height_nm));
  h = mix(h, seed);
  h = mix(h, legalize ? 1 : 0);
  h = mix_string(h, source);
  std::uint64_t state = h;
  return util::splitmix64(state);
}

util::Json GenerationRequest::to_json() const {
  util::Json j;
  j["id"] = id;
  j["style"] = style;
  j["count"] = count;
  j["rows"] = rows;
  j["cols"] = cols;
  j["steps"] = sample_steps;
  j["polish"] = polish_rounds;
  if (!schedule.empty()) j["schedule"] = schedule;
  j["width_nm"] = static_cast<long long>(width_nm);
  j["height_nm"] = static_cast<long long>(height_nm);
  j["seed"] = static_cast<long long>(seed);
  j["legalize"] = legalize;
  if (!source.empty()) j["source"] = source;
  if (priority != 1) j["priority"] = priority;
  if (deadline_ms > 0) j["deadline_ms"] = deadline_ms;
  if (!tenant.empty()) j["tenant"] = tenant;
  if (no_cache) j["no_cache"] = true;
  return j;
}

std::string validate(const GenerationRequest& r) {
  if (r.id.empty()) return "missing or empty 'id'";
  if (!r.source.empty() && r.source != "store") {
    return "unknown 'source' '" + r.source + "' (want \"\"|store)";
  }
  // Store requests reinterpret `style` as the store's free-form style tag,
  // so the dataset style registry does not apply to them.
  if (r.source.empty() && dataset::style_index(r.style) < 0) {
    return "unknown style '" + r.style + "'";
  }
  if (r.count <= 0) return "'count' must be positive";
  if (r.rows <= 0 || r.cols <= 0) return "'rows'/'cols' must be positive";
  if (r.sample_steps <= 0) return "'steps' must be positive";
  if (r.polish_rounds < 0) return "'polish' must be >= 0";
  if (!r.schedule.empty() && !diffusion::is_schedule_kind(r.schedule)) {
    return "unknown 'schedule' '" + r.schedule +
           "' (want noise_uniform|uniform|quadratic|searched)";
  }
  if (r.width_nm <= 0 || r.height_nm <= 0) return "'width_nm'/'height_nm' must be positive";
  if (r.deadline_ms < 0) return "'deadline_ms' must be >= 0";
  return "";
}

GenerationRequest GenerationRequest::from_json(const util::Json& j) {
  if (!j.is_object()) throw std::invalid_argument("request must be a JSON object");
  GenerationRequest r;
  r.id = j.get_string("id", "");
  r.style = j.get_string("style", r.style);
  r.count = get_int_field(j, "count", r.count);
  r.rows = get_int_field(j, "rows", r.rows);
  r.cols = get_int_field(j, "cols", r.cols);
  r.sample_steps = get_int_field(j, "steps", r.sample_steps);
  r.polish_rounds = get_int_field(j, "polish", r.polish_rounds);
  r.schedule = j.get_string("schedule", "");
  const std::string precision = j.get_string("precision", "fp32");
  if (precision != "fp32") {
    throw std::invalid_argument("unsupported 'precision' '" + precision +
                                "': the served model has no int8 tier (want fp32)");
  }
  r.width_nm = j.get_int("width_nm", r.width_nm);
  r.height_nm = j.get_int("height_nm", r.height_nm);
  r.seed = static_cast<std::uint64_t>(j.get_int("seed", 1));
  r.legalize = j.get_bool("legalize", true);
  r.source = j.get_string("source", "");
  r.priority = get_int_field(j, "priority", 1);
  r.deadline_ms = j.get_number("deadline_ms", 0.0);
  r.tenant = j.get_string("tenant", "");
  r.no_cache = j.get_bool("no_cache", false);
  const std::string reason = validate(r);
  if (!reason.empty()) throw std::invalid_argument(reason);
  return r;
}

BatchKey batch_key(const GenerationRequest& request, int condition) {
  BatchKey key;
  key.condition = condition;
  key.rows = request.rows;
  key.cols = request.cols;
  key.sample_steps = request.sample_steps;
  key.polish_rounds = request.polish_rounds;
  key.schedule = request.schedule;
  return key;
}

const char* to_string(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kIncomplete: return "incomplete";
    case RequestStatus::kRejected: return "rejected";
    case RequestStatus::kDeadlineExpired: return "deadline_expired";
    case RequestStatus::kCancelled: return "cancelled";
    case RequestStatus::kFailed: return "failed";
  }
  return "unknown";
}

std::uint64_t payload_hash(const GenerationPayload& payload) {
  std::uint64_t h = 1469598103934665603ULL;
  auto fnv = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  auto fnv_topology = [&](const squish::Topology& t) {
    fnv(static_cast<std::uint64_t>(t.rows()));
    fnv(static_cast<std::uint64_t>(t.cols()));
    // Per-cell 0/1 feed keeps hash values identical to the byte-backed era.
    for (int r = 0; r < t.rows(); ++r) {
      for (int c = 0; c < t.cols(); ++c) fnv(t.at(r, c));
    }
  };
  for (const auto& p : payload.patterns) {
    fnv_topology(p.topology);
    for (const auto d : p.dx) fnv(static_cast<std::uint64_t>(d));
    for (const auto d : p.dy) fnv(static_cast<std::uint64_t>(d));
  }
  for (const auto& t : payload.topologies) fnv_topology(t);
  return h;
}

std::uint64_t GenerationResult::library_hash() const {
  return payload ? payload_hash(*payload) : 0;
}

util::Json GenerationResult::to_json() const {
  util::Json j;
  j["id"] = id;
  j["status"] = to_string(status);
  if (!reason.empty()) j["reason"] = reason;
  j["patterns"] = payload ? payload->patterns.size() : std::size_t{0};
  j["topologies"] = payload ? payload->topologies.size() : std::size_t{0};
  j["cache_hit"] = cache_hit;
  if (deduped) j["deduped"] = true;
  if (degraded) j["degraded"] = true;
  if (truncated) j["truncated"] = true;
  j["attempts"] = attempts;
  j["rounds"] = rounds;
  j["queue_wait_ms"] = queue_wait_ms;
  j["service_ms"] = service_ms;
  j["total_ms"] = total_ms;
  j["library_hash"] = util::format("%016llx",
                                   static_cast<unsigned long long>(library_hash()));
  return j;
}

ParsedRequest parse_request_line(const std::string& line) {
  ParsedRequest out;
  try {
    out.request = GenerationRequest::from_json(util::Json::parse(line));
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

}  // namespace cp::serve

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

/// The value of `key`, or `fallback` when the field is absent. A value of
/// another JSON type than `fallback` is rejected rather than defaulted: the
/// default would serve the request as a different one.
const util::Json& field(const util::Json& j, const char* key, const util::Json& fallback) {
  const util::JsonObject& fields = j.as_object();
  const auto it = fields.find(key);
  if (it == fields.end()) return fallback;
  if (it->second.type() != fallback.type()) {
    static constexpr const char* kTypeNames[] = {"null",   "boolean", "number",
                                                 "string", "array",   "object"};
    throw std::invalid_argument(std::string("'") + key + "' must be a " +
                                kTypeNames[static_cast<int>(fallback.type())]);
  }
  return it->second;
}

/// An int-typed field, rounded as Json::as_int rounds. A value outside int
/// range is rejected rather than narrowed: narrowing would serve (and cache)
/// the request as a different one.
int get_int_field(const util::Json& j, const char* key, int fallback) {
  const double v = std::round(field(j, key, fallback).as_number());
  if (!(v >= INT_MIN && v <= INT_MAX)) {
    throw std::invalid_argument(std::string("'") + key + "' is outside int range");
  }
  return static_cast<int>(v);
}

/// A 64-bit field (seed, sizes in nm). JSON numbers are doubles, exact only
/// below 2^53: a larger literal would silently round onto a neighbour
/// (9007199254740993 reads as 2^53), so only integers in [0, 2^53) pass.
std::uint64_t get_u53_field(const util::Json& j, const char* key, std::uint64_t fallback) {
  const double v = field(j, key, static_cast<double>(fallback)).as_number();
  if (!(v >= 0 && v < 9007199254740992.0 && v == std::floor(v))) {
    throw std::invalid_argument(std::string("'") + key + "' must be an integer in [0, 2^53)");
  }
  return static_cast<std::uint64_t>(v);
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
    return "unknown 'schedule' '" + r.schedule + "' (want noise_uniform|searched)";
  }
  if (r.width_nm <= 0 || r.height_nm <= 0) return "'width_nm'/'height_nm' must be positive";
  if (r.deadline_ms < 0) return "'deadline_ms' must be >= 0";
  return "";
}

GenerationRequest GenerationRequest::from_json(const util::Json& j) {
  if (!j.is_object()) throw std::invalid_argument("request must be a JSON object");
  GenerationRequest r;
  r.id = field(j, "id", "").as_string();
  r.style = field(j, "style", r.style).as_string();
  r.count = get_int_field(j, "count", r.count);
  r.rows = get_int_field(j, "rows", r.rows);
  r.cols = get_int_field(j, "cols", r.cols);
  r.sample_steps = get_int_field(j, "steps", r.sample_steps);
  r.polish_rounds = get_int_field(j, "polish", r.polish_rounds);
  r.schedule = field(j, "schedule", "").as_string();
  const std::string precision = field(j, "precision", "fp32").as_string();
  if (precision != "fp32") {
    throw std::invalid_argument("unsupported 'precision' '" + precision +
                                "': the served model has no int8 tier (want fp32)");
  }
  r.width_nm = static_cast<geometry::Coord>(get_u53_field(j, "width_nm", r.width_nm));
  r.height_nm = static_cast<geometry::Coord>(get_u53_field(j, "height_nm", r.height_nm));
  r.seed = get_u53_field(j, "seed", 1);
  r.legalize = field(j, "legalize", true).as_bool();
  r.source = field(j, "source", "").as_string();
  r.priority = get_int_field(j, "priority", 1);
  r.deadline_ms = field(j, "deadline_ms", 0.0).as_number();
  r.tenant = field(j, "tenant", "").as_string();
  r.no_cache = field(j, "no_cache", false).as_bool();
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

#pragma once
// The typed request/result model of the serving layer (docs/SERVING.md).
//
// A GenerationRequest is one client order: "N DRC-clean patterns (or raw
// topologies) of this style and size, from this seed". Requests travel as
// newline-delimited JSON (NDJSON) — one object per line, the wire format of
// the `chatpattern_serve` binary — and carry two kinds of fields:
//
//   * content fields (style, size, steps, count, seed, legalize target):
//     everything that determines *what* is generated. These are folded into
//     content_hash(), the key of the serve::PatternCache — two requests with
//     equal hashes receive bit-identical payloads.
//   * scheduling fields (id, priority, deadline_ms): how urgently the work
//     runs. Deliberately excluded from the hash, so a high-priority retry of
//     a cached request still hits.
//
// Determinism contract: sample k of a request is always drawn from Rng
// stream Rng(seed).fork(k), and candidates are accepted in stream order.
// The payload therefore depends only on the content fields — never on queue
// order, batch composition, or worker-thread count (see server.h).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "geometry/polygon.h"
#include "squish/squish.h"
#include "util/json.h"

namespace cp::serve {

struct GenerationRequest {
  // -- scheduling fields (not hashed) --
  std::string id;           // client-chosen, non-empty; used for cancellation
  int priority = 1;         // higher runs earlier; aged to prevent starvation
  double deadline_ms = 0;   // relative to admission; 0 = none
  /// Accounting principal for the network front-end's per-tenant admission
  /// quotas (serve/net_server.h); free-form, "" = the anonymous tenant.
  /// Ignored by the in-process server. Not hashed: the same content served
  /// to two tenants is still the same content.
  std::string tenant;
  /// Bypass the PatternCache entirely (no lookup, no insert). Set by the
  /// front-end on requests it re-sends after losing a worker mid-flight:
  /// per the degraded-serving convention (docs/ROBUSTNESS.md) an
  /// interrupted request's payload is delivered but never cached. Not
  /// hashed — it changes caching, never the payload.
  bool no_cache = false;

  // -- content fields (hashed) --
  std::string style = "Layer-10001";  // condition label; resolved at submit
  int count = 1;                      // patterns requested
  int rows = 128, cols = 128;
  int sample_steps = 16;
  int polish_rounds = 2;
  /// Visited-timestep placement for fast sampling (diffusion/
  /// timestep_schedule.h): "noise_uniform" | "searched". Empty = noise-
  /// uniform. A content field: two requests differing only here can
  /// legitimately deliver different payloads, so it is hashed and
  /// batch-keyed.
  std::string schedule;
  geometry::Coord width_nm = 2048, height_nm = 2048;
  std::uint64_t seed = 1;
  /// true: deliver legalized SquishPatterns (retrying streams that fail
  /// legalization); false: deliver the first `count` raw topologies.
  bool legalize = true;
  /// Payload origin: "" = generate via the diffusion stack (the default);
  /// "store" = retrieve from the server's attached pattlib::PatternStore
  /// instead. Store requests reinterpret `style` as the store's free-form
  /// style tag ("*" = any tag) and `count` as the query limit; they are
  /// answered synchronously at submit, bypassing the queue AND the cache
  /// (store contents may grow between calls). A content field: it changes
  /// what the payload is, so it is hashed.
  std::string source;

  /// Canonical content hash over the content fields only (SplitMix64
  /// avalanche chain). The PatternCache key.
  std::uint64_t content_hash() const;

  /// Wire form (one NDJSON object). Scheduling defaults are omitted.
  util::Json to_json() const;

  /// Parse and validate one request object. Throws std::invalid_argument
  /// with a reason on malformed input (missing/empty id, unknown style,
  /// non-positive count/size, an integer field outside int range, bad
  /// types). The wire key "precision" is accepted only as "fp32": the served
  /// model's precision is fixed where it is built, and it has no int8 tier.
  static GenerationRequest from_json(const util::Json& j);
};

/// Validation shared by NDJSON parsing and the direct submit() API: empty
/// string when `request` is well-formed, else the rejection reason
/// (missing id, unknown style, non-positive count/size/steps, ...).
std::string validate(const GenerationRequest& request);

/// Sampling-compatibility key: requests whose keys compare equal can be
/// coalesced into one BatchSampler::sample_jobs invocation (they share the
/// SampleConfig; seeds and legalization targets stay per-request).
struct BatchKey {
  int condition = 0;
  int rows = 0, cols = 0;
  int sample_steps = 0;
  int polish_rounds = 0;
  std::string schedule;  // raw request field; "" = noise-uniform
  bool operator==(const BatchKey&) const = default;
};

/// The key of `request` given its resolved condition index.
BatchKey batch_key(const GenerationRequest& request, int condition);

enum class RequestStatus {
  kOk,               // full payload delivered
  kIncomplete,       // attempt budget ran out; partial payload delivered
  kRejected,         // refused at admission (queue full / invalid / draining)
  kDeadlineExpired,  // deadline passed before generation started
  kCancelled,        // cancelled while queued (or server destroyed)
  kFailed,           // internal error during generation; the request failed,
                     // the dispatcher survived (docs/ROBUSTNESS.md)
};

const char* to_string(RequestStatus status);

/// What a completed request delivers. Exactly one of the two vectors is
/// populated (patterns when request.legalize, topologies otherwise).
/// Shared immutably between the cache and every result that hit it.
struct GenerationPayload {
  std::vector<squish::SquishPattern> patterns;
  std::vector<squish::Topology> topologies;

  std::size_t size() const { return patterns.size() + topologies.size(); }
};

/// Order-sensitive FNV-1a over the payload contents; the per-request
/// "library hash" used by the determinism audits (1 worker vs N workers
/// must agree bit-for-bit).
std::uint64_t payload_hash(const GenerationPayload& payload);

struct GenerationResult {
  std::string id;
  RequestStatus status = RequestStatus::kRejected;
  std::string reason;       // non-empty for rejected/expired/cancelled
  std::shared_ptr<const GenerationPayload> payload;  // null unless ok/incomplete

  bool cache_hit = false;   // payload came from the PatternCache
  bool deduped = false;     // payload shared with an identical in-batch twin
  /// True when at least one delivered sample came from the degraded-mode
  /// fallback generator after the primary's retry budget was exhausted
  /// (docs/ROBUSTNESS.md), or — at the network front-end — when the request
  /// was re-run after a worker loss. Degraded payloads are never cached: a
  /// later identical request gets a fresh, non-degraded attempt.
  bool degraded = false;
  /// Store-retrieval only: the requested count exceeded the server's
  /// ServerConfig::store_result_cap and the payload was clipped to the cap
  /// (distinguishes "the cap bound the result" from "the store ran out").
  bool truncated = false;
  long long attempts = 0;   // topologies sampled for this request
  int rounds = 0;           // generation rounds (>1 means legalization retries)
  double queue_wait_ms = 0; // admission -> batch formation
  double service_ms = 0;    // batch formation -> completion
  double total_ms = 0;

  bool ok() const { return status == RequestStatus::kOk; }
  std::size_t delivered() const { return payload ? payload->size() : 0; }
  /// payload_hash of the payload (0 when absent).
  std::uint64_t library_hash() const;

  /// Wire form: a summary line (counts, timings, hex library hash) — the
  /// patterns themselves stay server-side, like the agent tool results.
  util::Json to_json() const;
};

/// Outcome of parsing one NDJSON trace line.
struct ParsedRequest {
  bool ok = false;
  GenerationRequest request;
  std::string error;  // parse/validation failure reason
};

/// Parse one trace line (tolerates surrounding whitespace). Never throws:
/// malformed lines come back as {ok=false, error}.
ParsedRequest parse_request_line(const std::string& line);

}  // namespace cp::serve

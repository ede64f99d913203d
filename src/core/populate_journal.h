#pragma once
// Crash-safe work journal for PatternLibrary::populate.
//
// populate generates patterns in rounds; the journal appends one
// self-checksummed record per completed round (counters + the patterns
// accepted that round). A killed run restarted against the same journal
// restores every completed round and resumes at the next round boundary —
// regenerating zero already-accepted patterns — and, because a round's
// candidates are derived statelessly from (seed, stream index), the resumed
// library is bit-identical to an uninterrupted run.
//
// The file is a util::RecordWriter log (docs/ROBUSTNESS.md "Record logs")
// whose first record is the run fingerprint (seed, count, window, attempt
// budget). A journal of another run, or a damaged one, is discarded and
// restarted fresh.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "geometry/polygon.h"
#include "squish/squish.h"
#include "util/record_log.h"

namespace cp::core {

class PopulateJournal {
 public:
  /// Identifies one populate run; a journal only resumes a run with the
  /// identical fingerprint.
  struct Fingerprint {
    std::uint64_t seed = 0;
    std::int32_t count = 0;
    std::int64_t width_nm = 0;
    std::int64_t height_nm = 0;
    std::int64_t max_attempts = 0;
  };

  /// Completed-round state restored by open().
  struct State {
    long long attempts = 0;
    int rounds = 0;
    std::uint64_t next_stream = 0;
    std::vector<squish::SquishPattern> patterns;
  };

  explicit PopulateJournal(std::string path) : path_(std::move(path)) {}

  /// Open the journal for a run with fingerprint `fp`. When the file exists,
  /// matches the fingerprint and holds at least one intact round record,
  /// restores that state into *state and returns true (later appends extend
  /// the journal after truncating a torn tail). A missing, foreign,
  /// fingerprint-mismatched or corrupt file starts a fresh journal
  /// (truncating it) and returns false. Never throws on corrupt content — a
  /// journal is an optimisation, losing it only costs recomputation.
  bool open(const Fingerprint& fp, State* state);

  /// Append one completed round: the counter values after the round and the
  /// patterns accepted during it (patterns[first_new..end)), in one write(2);
  /// a torn append is dropped by the next open(). A failed append (e.g. a
  /// round over the record cap) logs a warning and stops journaling.
  void append_round(long long attempts, int rounds, std::uint64_t next_stream,
                    const std::vector<squish::SquishPattern>& patterns, std::size_t first_new);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::optional<util::RecordWriter> writer_;
};

}  // namespace cp::core

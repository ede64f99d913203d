#pragma once
// Accepted-work ledger of the serving front-end (docs/ROBUSTNESS.md).
//
// The no-lost-work contract of the multi-process tier is an accounting
// claim: every request the front-end admits must eventually complete with
// some terminal status (ok / incomplete / failed / ...), across worker
// crashes, restarts and retries. The ledger is that account: accept() at
// admission, complete() exactly once when the result (or synthesized
// failure) is written back, outstanding() must be zero at drain.
//
// With a journal path, the ledger also appends one record per event to an
// on-disk util::RecordWriter log (docs/ROBUSTNESS.md "Record logs"), so a
// restarted supervisor (or a post-mortem) can report exactly which accepted
// requests were still unfinished. The journal is an audit artifact; serving
// never reads it on the hot path.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/record_log.h"

namespace cp::serve {

class RequestLedger {
 public:
  static constexpr std::string_view kJournalMagic = "CPSJ0002";

  /// `journal_path` empty = in-memory accounting only. A pre-existing
  /// journal file is truncated (each front-end run owns its journal).
  /// Journal open failures are recorded (journal_error()) but never fatal —
  /// losing the audit trail must not take down serving.
  explicit RequestLedger(std::string journal_path = "");

  RequestLedger(const RequestLedger&) = delete;
  RequestLedger& operator=(const RequestLedger&) = delete;

  /// Record an admission; returns the ledger sequence number that
  /// complete() must be called with.
  std::uint64_t accept(const std::string& client_id, std::uint64_t content_hash);

  /// Record the terminal status of `seq`. Unknown/duplicate seqs are
  /// counted (double_completes()) instead of corrupting the account —
  /// exactly-once completion is the invariant under test.
  void complete(std::uint64_t seq, std::string_view status);

  long long accepted() const { return accepted_; }
  long long completed() const { return completed_; }
  long long outstanding() const { return static_cast<long long>(open_.size()); }
  long long double_completes() const { return double_completes_; }
  const std::string& journal_error() const { return journal_error_; }

  /// Client ids of still-unfinished requests (diagnostics; unordered).
  std::vector<std::string> unfinished_ids() const;

  /// fsync the journal (records reach the OS as they are appended).
  void flush();

  /// Parsed journal contents. A torn final record is dropped (torn_tail);
  /// an unreadable, foreign or corrupt file reports ok=false, a corrupt one
  /// with the byte offset in `error`.
  struct Recovered {
    bool ok = false;
    std::string error;
    bool torn_tail = false;
    long long accepted = 0;
    long long completed = 0;
    std::vector<std::string> unfinished_ids;  // accepted, never completed
  };
  static Recovered load(const std::string& path);

 private:
  void append_record(std::uint8_t type, std::string_view payload);
  void fail_journal(const std::string& what);

  long long accepted_ = 0;
  long long completed_ = 0;
  long long double_completes_ = 0;
  std::uint64_t next_seq_ = 1;
  std::unordered_map<std::uint64_t, std::string> open_;  // seq -> client id
  std::optional<util::RecordWriter> journal_;
  std::string journal_error_;
};

}  // namespace cp::serve

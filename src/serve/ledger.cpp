#include "serve/ledger.h"

#include <stdexcept>

#include "obs/registry.h"
#include "util/strings.h"

namespace cp::serve {

namespace {

// CPSJ is a record log (util/record_log.h) under
// RequestLedger::kJournalMagic with one record per accept / complete event.
constexpr std::uint8_t kAccept = 'A';
constexpr std::uint8_t kComplete = 'C';

}  // namespace

RequestLedger::RequestLedger(std::string journal_path) {
  if (journal_path.empty()) return;
  try {
    journal_.emplace(std::move(journal_path), kJournalMagic, 0);
  } catch (const std::exception& e) {
    journal_error_ = std::string("ledger: cannot open journal: ") + e.what();
  }
}

std::uint64_t RequestLedger::accept(const std::string& client_id, std::uint64_t content_hash) {
  const std::uint64_t seq = next_seq_++;
  ++accepted_;
  open_.emplace(seq, client_id);
  if (journal_) {
    std::string payload;
    util::put_u64(payload, seq);
    util::put_u64(payload, content_hash);
    util::put_u32(payload, static_cast<std::uint32_t>(client_id.size()));
    payload.append(client_id);
    append_record(kAccept, payload);
  }
  return seq;
}

void RequestLedger::complete(std::uint64_t seq, std::string_view status) {
  const auto it = open_.find(seq);
  if (it == open_.end()) {
    ++double_completes_;
    obs::count("serve_net/ledger_double_complete");
    return;
  }
  open_.erase(it);
  ++completed_;
  if (journal_) {
    std::string payload;
    util::put_u64(payload, seq);
    util::put_u32(payload, static_cast<std::uint32_t>(status.size()));
    payload.append(status);
    append_record(kComplete, payload);
  }
}

std::vector<std::string> RequestLedger::unfinished_ids() const {
  std::vector<std::string> out;
  out.reserve(open_.size());
  for (const auto& [seq, id] : open_) out.push_back(id);
  return out;
}

void RequestLedger::flush() {
  if (!journal_) return;
  try {
    journal_->sync();
  } catch (const std::exception& e) {
    fail_journal(e.what());
  }
}

void RequestLedger::append_record(std::uint8_t type, std::string_view payload) {
  try {
    journal_->append(type, payload);
  } catch (const std::exception& e) {
    fail_journal(e.what());
  }
}

void RequestLedger::fail_journal(const std::string& what) {
  // Losing the audit trail must not take down serving.
  journal_error_ = "ledger: journal write failed: " + what;
  obs::count("serve_net/ledger_write_errors");
  journal_.reset();
}

RequestLedger::Recovered RequestLedger::load(const std::string& path) {
  Recovered out;
  std::unordered_map<std::uint64_t, std::string> open;
  util::LogScan scan;
  try {
    scan = util::scan_log(path, kJournalMagic, [&](std::uint8_t type, std::string_view payload) {
      // Unknown record types are skipped: future writers stay loadable.
      util::Cursor cur(payload);
      try {
        if (type == kAccept) {
          const std::uint64_t seq = cur.u64();
          cur.u64();  // content hash
          const std::string_view id = cur.bytes(cur.u32());
          open.emplace(seq, std::string(id));
          ++out.accepted;
        } else if (type == kComplete) {
          open.erase(cur.u64());
          ++out.completed;
        }
      } catch (const std::runtime_error&) {
        // A malformed record (e.g. a lying id length) is skipped, never read through.
      }
    });
  } catch (const std::exception& e) {
    out.error = e.what();
    return out;
  }
  if (scan.valid_end == 0) {
    out.error = "ledger: missing, empty or headerless journal: " + path;
    return out;
  }
  if (scan.end == util::LogScan::End::kCorrupt) {
    out.error = util::format("ledger: corrupt record at byte %llu of '%s'",
                             static_cast<unsigned long long>(scan.valid_end), path.c_str());
    return out;
  }
  out.torn_tail = scan.end == util::LogScan::End::kTorn;
  for (auto& [seq, id] : open) out.unfinished_ids.push_back(std::move(id));
  out.ok = true;
  return out;
}

}  // namespace cp::serve

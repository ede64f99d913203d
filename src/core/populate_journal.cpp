#include "core/populate_journal.h"

#include <stdexcept>

#include "util/logging.h"

namespace cp::core {

namespace {

// CPPJ is a record log (util/record_log.h) under this magic: one header
// record carrying the run fingerprint, then one record per completed round.
constexpr std::string_view kMagic = "CPPJ0002";
constexpr std::uint8_t kHeader = 'H';
constexpr std::uint8_t kRound = 'R';

std::string header_payload(const PopulateJournal::Fingerprint& fp) {
  std::string buf;
  util::put_u64(buf, fp.seed);
  util::put_u32(buf, static_cast<std::uint32_t>(fp.count));
  util::put_u64(buf, static_cast<std::uint64_t>(fp.width_nm));
  util::put_u64(buf, static_cast<std::uint64_t>(fp.height_nm));
  util::put_u64(buf, static_cast<std::uint64_t>(fp.max_attempts));
  return buf;
}

void put_deltas(std::string& buf, const squish::DeltaVec& d) {
  util::put_u32(buf, static_cast<std::uint32_t>(d.size()));
  for (geometry::Coord v : d) util::put_u64(buf, static_cast<std::uint64_t>(v));
}

void get_deltas(util::Cursor& cur, squish::DeltaVec& d) {
  const std::uint32_t n = cur.u32();
  util::Cursor values(cur.bytes(std::size_t{n} * 8));  // bounds-checked before resize
  d.resize(n);
  for (auto& v : d) v = static_cast<geometry::Coord>(values.u64());
}

void put_pattern(std::string& buf, const squish::SquishPattern& p) {
  util::put_u32(buf, static_cast<std::uint32_t>(p.topology.rows()));
  util::put_u32(buf, static_cast<std::uint32_t>(p.topology.cols()));
  // One byte per cell: from_bytes rejects anything but 0/1 on the way back.
  const std::vector<std::uint8_t> cells = p.topology.to_bytes();
  buf.append(reinterpret_cast<const char*>(cells.data()), cells.size());
  put_deltas(buf, p.dx);
  put_deltas(buf, p.dy);
}

squish::SquishPattern get_pattern(util::Cursor& cur) {
  const std::uint32_t rows = cur.u32();
  const std::uint32_t cols = cur.u32();
  if (rows > 1u << 16 || cols > 1u << 16) throw std::runtime_error("corrupt record payload");
  const std::string_view cells = cur.bytes(std::size_t{rows} * cols);
  squish::SquishPattern p;
  p.topology = squish::Topology::from_bytes(static_cast<int>(rows), static_cast<int>(cols),
                                            reinterpret_cast<const std::uint8_t*>(cells.data()),
                                            cells.size());
  get_deltas(cur, p.dx);
  get_deltas(cur, p.dy);
  return p;
}

void read_round(std::string_view payload, PopulateJournal::State& state) {
  util::Cursor cur(payload);
  state.attempts = static_cast<long long>(cur.u64());
  state.rounds = static_cast<int>(cur.u32());
  state.next_stream = cur.u64();
  const std::uint32_t n_new = cur.u32();
  for (std::uint32_t i = 0; i < n_new; ++i) state.patterns.push_back(get_pattern(cur));
  if (!cur.exhausted()) throw std::runtime_error("corrupt record payload");
}

}  // namespace

bool PopulateJournal::open(const Fingerprint& fp, State* state) {
  const std::string header = header_payload(fp);
  State restored;
  bool same_run = false;
  std::uint64_t valid_end = 0;
  try {
    const util::LogScan scan =
        util::scan_log(path_, kMagic, [&](std::uint8_t type, std::string_view payload) {
          if (!same_run) {
            if (type != kHeader || payload != header) throw std::runtime_error("another run");
            same_run = true;
          } else if (type == kRound) {
            read_round(payload, restored);
          } else {
            throw std::runtime_error("unknown record type");
          }
        });
    if (same_run && scan.end != util::LogScan::End::kCorrupt) valid_end = scan.valid_end;
  } catch (const std::exception&) {
    // Unreadable, foreign, another run's or undecodable: start fresh below.
  }

  writer_.emplace(path_, kMagic, valid_end);
  if (valid_end == 0) {
    writer_->append(kHeader, header);
    return false;
  }
  if (restored.rounds == 0) return false;
  *state = std::move(restored);
  return true;
}

void PopulateJournal::append_round(long long attempts, int rounds, std::uint64_t next_stream,
                                   const std::vector<squish::SquishPattern>& patterns,
                                   std::size_t first_new) {
  if (!writer_) return;
  std::string payload;
  util::put_u64(payload, static_cast<std::uint64_t>(attempts));
  util::put_u32(payload, static_cast<std::uint32_t>(rounds));
  util::put_u64(payload, next_stream);
  util::put_u32(payload, static_cast<std::uint32_t>(patterns.size() - first_new));
  for (std::size_t i = first_new; i < patterns.size(); ++i) put_pattern(payload, patterns[i]);
  try {
    writer_->append(kRound, payload);
  } catch (const std::exception& e) {
    // Losing the journal only costs recomputation after a crash.
    CP_LOG_WARN << "populate journal " << path_ << " disabled: " << e.what();
    writer_.reset();
  }
}

}  // namespace cp::core

// library_ingest: the persistent pattern library. Set-up opens (replays) a
// prepared CPPL store; the timed closed loop ingests fresh synthetic GDS
// files into it with pattlib::ingest_gds (CRC-framed appends, dedup, fsync).

#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>

#include "io/gds.h"
#include "io/gds_stream.h"
#include "pattlib/ingest.h"
#include "pattlib/pattern_store.h"
#include "stats.h"
#include "traced.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workloads.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kPreparedRecords = 40000;  // replay of the store takes ~0.3 s
constexpr int kPreparedCells = 16;       // prepared records are 16x16 topologies
// Files of ~0.1 s of ingest each: with smaller ones, one slow fsync of the
// shared disk decided the per-file tail.
constexpr int kStructures = 32;          // per GDS file: 512 windows
constexpr int kRects = 1024;             // per structure: 16 windows of 2048 nm
constexpr double kFileS = 0.11;          // sizes the file count to the window
constexpr int kSetups = 5;               // untraced set-ups; a traced run opens once
constexpr double kLimitMs = 500;         // frozen per-file latency limit
constexpr const char* kStyle = "Layer-10001";
constexpr int kQueries = 16;
constexpr std::size_t kQualitySample = 4096;  // added windows re-checked for legality

/// Structure 0 is the same in every file (its windows dedup after the first
/// file); the others are fresh per file and seed.
cp::io::GdsLibrary make_file(std::uint64_t seed, int file) {
  cp::io::GdsLibrary lib;
  lib.name = "PERFBENCH";
  for (int s = 0; s < kStructures; ++s) {
    cp::util::Rng rng(mix_seed(seed, s == 0 ? 0 : static_cast<std::uint64_t>(file) * 64 + s + 1));
    cp::io::GdsStructure str;
    str.name = cp::util::format("F%d_S%d", file, s);
    str.layer = 1;
    for (int i = 0; i < kRects; ++i) {
      const cp::geometry::Coord x = (i % 64) * 256;
      const cp::geometry::Coord y = (i / 64) * 256;
      const cp::geometry::Coord w = 96 + static_cast<cp::geometry::Coord>(rng.next_u64() % 96);
      const cp::geometry::Coord h = 96 + static_cast<cp::geometry::Coord>(rng.next_u64() % 96);
      str.rects.push_back({x, y, x + w, y + h});
    }
    lib.structures.push_back(std::move(str));
  }
  return lib;
}

void prepare_store(const std::string& path, std::uint64_t seed) {
  std::filesystem::remove(path);
  cp::pattlib::PatternStore store(path);
  cp::util::Rng rng(mix_seed(seed, 999999));
  for (int k = 0; k < kPreparedRecords; ++k) {
    cp::squish::SquishPattern p;
    p.topology = cp::squish::Topology(kPreparedCells, kPreparedCells);
    for (int r = 0; r < kPreparedCells; ++r) {
      const std::uint64_t bits = rng.next_u64();
      for (int c = 0; c < kPreparedCells; ++c) {
        p.topology.set(r, c, static_cast<int>((bits >> c) & 1));
      }
    }
    p.dx = cp::squish::uniform_deltas(kPreparedCells, 2048);
    p.dy = cp::squish::uniform_deltas(kPreparedCells, 2048);
    cp::pattlib::PatternMeta meta;
    meta.source = "prepared";
    meta.style_tag = "prepared";
    meta.density = static_cast<double>(p.topology.popcount()) / (kPreparedCells * kPreparedCells);
    store.add(p, std::move(meta));
  }
  store.flush();
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

cp::pattlib::IngestConfig ingest_config() {
  cp::pattlib::IngestConfig cfg;
  cfg.style_tag = "ingested";
  return cfg;
}

struct IngestTotals {
  long long added = 0, deduped = 0, windows = 0;
  std::uint64_t bytes = 0;
  std::vector<double> latency_ms;
  double busy_s = 0;
};

}  // namespace

void run_library_ingest(const RunConfig& cfg, Report& report) {
  const int files = std::max(2, static_cast<int>(std::lround(0.6 * cfg.seconds / kFileS)));
  const std::string dir = cfg.workdir + "/ingest";
  std::filesystem::create_directories(dir);
  const std::string store_path = dir + "/library.cppl";
  const std::string traced_store_path = dir + "/library_traced.cppl";
  const std::string gds_path = dir + "/input.gds";
  report.info("prepared_store", std::to_string(kPreparedRecords) + " records");
  report.info("files", std::to_string(files) + " x " + std::to_string(kStructures) +
                           " structures x " + std::to_string(kRects) + " rects");

  prepare_store(store_path, cfg.seed);
  if (cfg.trace) {
    std::filesystem::copy_file(store_path, traced_store_path,
                               std::filesystem::copy_options::overwrite_existing);
  }

  // Set-up: open (replay) the prepared store, several times.
  const int setups = cfg.trace ? 1 : kSetups;
  std::vector<double> setup_s;
  std::unique_ptr<cp::pattlib::PatternStore> store;
  for (int i = 0; i < setups; ++i) {
    store.reset();
    const Clock::time_point start = Clock::now();
    store = std::make_unique<cp::pattlib::PatternStore>(store_path);
    setup_s.push_back(seconds_since(start));
  }
  const std::size_t base = store->size();

  // Timed closed loop: each file is written untimed, then ingested.
  IngestTotals u;
  for (int f = 0; f < files; ++f) {
    cp::io::write_gds(gds_path, make_file(cfg.seed, f));
    const Clock::time_point start = Clock::now();
    const cp::pattlib::IngestStats st = cp::pattlib::ingest_gds(gds_path, *store, ingest_config());
    const double s = seconds_since(start);
    u.latency_ms.push_back(s * 1000);
    u.busy_s += s;
    u.added += st.added;
    u.deduped += st.deduped;
    u.windows += st.windows_kept;
  }
  const double rss = self_peak_rss_mb();

  std::vector<cp::squish::SquishPattern> added;
  for (std::size_t id = base; id < store->size() && added.size() < kQualitySample; ++id) {
    added.push_back(store->at(id).pattern);
  }
  store.reset();
  const Quality q = quality_of(added, std::vector<std::string>(added.size(), kStyle));

  // The store on disk holds exactly the prepared records plus the additions.
  std::size_t reopened = cp::pattlib::PatternStore(store_path).size();
  if (report.corrupt("reopen_count")) --reopened;
  report.check("reopen_count", reopened == base + static_cast<std::size_t>(u.added),
               "reopened " + std::to_string(reopened) + " = " + std::to_string(base) +
                   " prepared + " + std::to_string(u.added) + " added");
  const long long deduped = report.corrupt("dedup_present") ? 0 : u.deduped;
  report.check("dedup_present", deduped > 0 && u.added + deduped == u.windows,
               std::to_string(u.added) + " added + " + std::to_string(deduped) +
                   " deduped of " + std::to_string(u.windows) + " windows");

  long long met = 0;
  for (const double ms : u.latency_ms) met += ms <= kLimitMs;
  report.info("requests.sent", static_cast<double>(files));
  report.info("requests.ok", static_cast<double>(files));
  report.info("requests.failed", 0.0);
  report.info("requests.rejected", 0.0);
  report.count_requests(files, 0);
  const Tail tail = sliced_tail(u.latency_ms);
  report.info("lat_tail.percentile", tail.label());
  report.info("slo.limit_ms", kLimitMs);
  report.end_to_end("setup_s", median(setup_s), "s");
  report.end_to_end("lat_p50_ms", median(u.latency_ms), "ms");
  report.end_to_end("lat_tail_ms", tail.value, "ms");
  report.end_to_end("throughput", static_cast<double>(u.windows) / u.busy_s, "1/s");
  report.end_to_end("slo_attain", static_cast<double>(met) / files, "share");
  report.end_to_end("peak_rss_mb", rss, "MB");
  report.end_to_end("legality", q.checked > 0 ? static_cast<double>(q.legal) / q.checked : 0,
                    "share");
  report.end_to_end("diversity", q.diversity_bits, "bits");

  if (!cfg.trace) {
    std::filesystem::remove_all(dir);
    return;
  }

  // Traced run: the pieces ingest_gds composes, each timed, into a copy of
  // the prepared store; the counts must match the untraced run exactly.
  Accumulator acc;
  std::unique_ptr<cp::pattlib::PatternStore> traced;
  {
    const ScopedTimer timer(acc, "pattlib.replay");
    traced = std::make_unique<cp::pattlib::PatternStore>(traced_store_path);
  }
  IngestTotals t;
  const cp::pattlib::IngestConfig icfg = ingest_config();
  for (int f = 0; f < files; ++f) {
    cp::io::write_gds(gds_path, make_file(cfg.seed, f));
    const Clock::time_point start = Clock::now();
    double window_ms = 0, add_ms = 0;
    const Clock::time_point stream_start = Clock::now();
    const cp::io::StreamStats st =
        cp::io::stream_gds_structures(gds_path, [&](cp::io::GdsStructure&& s) {
          const Clock::time_point w0 = Clock::now();
          double add_in_window = 0;
          cp::pattlib::windows_over(
              s.rects, icfg.window,
              [&](cp::squish::SquishPattern&& pattern, cp::geometry::Coord wx,
                  cp::geometry::Coord wy) {
                cp::pattlib::PatternMeta meta;
                meta.source = gds_path;
                meta.structure = s.name;
                meta.style_tag = icfg.style_tag;
                meta.layer = s.layer;
                meta.window_x = wx;
                meta.window_y = wy;
                const Clock::time_point a0 = Clock::now();
                const cp::pattlib::AddResult r = traced->add(pattern, std::move(meta));
                add_in_window += ms_since(a0);
                r.inserted ? ++t.added : ++t.deduped;
              });
          window_ms += ms_since(w0) - add_in_window;
          add_ms += add_in_window;
        });
    const double stream_ms = ms_since(stream_start) - window_ms - add_ms;
    {
      const ScopedTimer timer(acc, "pattlib.flush");
      traced->flush();
    }
    const double s = seconds_since(start);
    t.latency_ms.push_back(s * 1000);
    t.bytes += st.bytes;
    acc.add("io.stream", stream_ms);
    acc.add("pattlib.window", window_ms);
    acc.add("pattlib.add", add_ms);
  }
  {
    // The read path after the writes: fixed density-band queries and reads.
    for (int k = 0; k < kQueries; ++k) {
      const ScopedTimer timer(acc, "pattlib.query");
      cp::pattlib::Query query;
      query.style_tag = k % 2 ? "ingested" : "prepared";
      query.min_density = k / static_cast<double>(kQueries);
      query.max_density = (k + 2) / static_cast<double>(kQueries);
      query.limit = 256;
      const std::vector<std::uint64_t> ids = traced->query(query);
      traced->patterns(ids);
    }
  }
  traced.reset();

  long long traced_added = t.added;
  if (report.corrupt("ingest_decomposition")) ++traced_added;
  report.check("ingest_decomposition", traced_added == u.added && t.deduped == u.deduped,
               "traced added/deduped " + std::to_string(traced_added) + "/" +
                   std::to_string(t.deduped) + " vs ingest_gds " + std::to_string(u.added) +
                   "/" + std::to_string(u.deduped));

  const double per = 1.0 / files;
  const double stream_ms = acc.get("io.stream").total;
  report.layer("io.stream_ms", stream_ms * per, "ms");
  report.layer("io.mb_per_s",
               stream_ms > 0 ? static_cast<double>(t.bytes) / 1e6 / (stream_ms / 1000) : 0,
               "MB/s");
  report.layer("pattlib.window_ms", acc.get("pattlib.window").total * per, "ms");
  report.layer("pattlib.add_ms", acc.get("pattlib.add").total * per, "ms");
  report.layer("pattlib.dedup_share",
               static_cast<double>(t.deduped) / static_cast<double>(t.added + t.deduped), "share");
  report.layer("pattlib.flush_ms", acc.get("pattlib.flush").total * per, "ms");
  report.layer("pattlib.replay_ms", acc.get("pattlib.replay").total, "ms");
  report.layer("pattlib.query_ms", acc.get("pattlib.query").total / kQueries, "ms");
  report.layer("trace.overhead_ms", median(t.latency_ms) - median(u.latency_ms), "ms");
  std::filesystem::remove_all(dir);
}

}  // namespace perfbench

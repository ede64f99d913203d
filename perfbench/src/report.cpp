#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/json.h"

namespace perfbench {

namespace {

void print_metric(const char* kind, const Metric& m) {
  std::printf("metric %-5s %-34s = %.6g %s\n", kind, m.name.c_str(), m.value, m.unit.c_str());
}

}  // namespace

Report::Report(const std::string& corrupt) {
  std::size_t start = 0;
  while (start < corrupt.size()) {
    const std::size_t comma = std::min(corrupt.find(',', start), corrupt.size());
    if (comma > start) corrupt_.insert(corrupt.substr(start, comma - start));
    start = comma + 1;
  }
}

void Report::end_to_end(const std::string& name, double value, const std::string& unit) {
  end_to_end_.push_back({name, value, unit});
  print_metric("e2e", end_to_end_.back());
}

void Report::layer(const std::string& name, double value, const std::string& unit) {
  layers_.push_back({name, value, unit});
  print_metric("layer", layers_.back());
}

void Report::info(const std::string& key, const std::string& value) {
  std::printf("info %s = %s\n", key.c_str(), value.c_str());
  std::fflush(stdout);
}

void Report::info(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  info(key, std::string(buf));
}

void Report::check(const std::string& name, bool passed, const std::string& detail) {
  if (!passed) ++failed_checks_;
  std::printf("check %-26s %s  %s\n", name.c_str(), passed ? "PASS" : "FAIL", detail.c_str());
  std::fflush(stdout);
}

void Report::require_end_to_end(const std::vector<std::string>& names) const {
  for (const std::string& name : names) {
    bool found = false;
    for (const Metric& m : end_to_end_) found = found || m.name == name;
    if (!found) throw std::logic_error("end-to-end metric '" + name + "' was not reported");
  }
}

void Report::fill_layers(const std::vector<Metric>& all) {
  for (const Metric& m : all) {
    bool found = false;
    for (const Metric& have : layers_) found = found || have.name == m.name;
    if (!found) layer(m.name, 0, m.unit);
  }
}

int Report::finish(bool traced) const {
  cp::util::Json metrics;
  bool finite = true;
  for (const Metric& m : traced ? layers_ : end_to_end_) {
    cp::util::Json entry;
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    metrics[m.name] = entry;
    finite = finite && std::isfinite(m.value);
  }
  const bool correct = failed_checks_ == 0 && finite && attempted_ > 0;
  cp::util::Json out;
  out["correct"] = correct;
  out["attempted"] = attempted_;
  out["failed"] = failed_;
  out["metrics"] = metrics;
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench

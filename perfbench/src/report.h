#pragma once
// Everything a run prints: human-readable `info`, `metric` and `check` lines
// while it works, then one JSON object as the last line of standard output
// (the machine-readable result). End-to-end metrics go into that object on
// untraced runs, per-layer metrics on traced runs; both kinds are always
// printed as text lines.

#include <set>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  /// `corrupt` is a comma-separated list of correctness checks whose input
  /// the run deliberately damages before evaluating them (the smoke test's
  /// proof that each check can fail); empty for real runs.
  explicit Report(const std::string& corrupt);

  void end_to_end(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  void info(const std::string& key, const std::string& value);
  void info(const std::string& key, double value);

  /// True when this run must damage the input of check `name`.
  bool corrupt(const std::string& name) const { return corrupt_.count(name) > 0; }
  void check(const std::string& name, bool passed, const std::string& detail);
  bool all_passed() const { return failed_checks_ == 0; }

  void count_requests(long long attempted, long long failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// Throws unless every name in `names` was reported as end-to-end.
  void require_end_to_end(const std::vector<std::string>& names) const;
  /// Reports every metric of `all` not yet reported as a layer, as 0.
  void fill_layers(const std::vector<Metric>& all);

  /// Prints the JSON result line; returns the process exit code (non-zero
  /// when any check failed or nothing was attempted).
  int finish(bool traced) const;

 private:
  std::set<std::string> corrupt_;
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layers_;
  int failed_checks_ = 0;
  long long attempted_ = 0;
  long long failed_ = 0;
};

}  // namespace perfbench

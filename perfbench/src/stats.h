#pragma once
// Order statistics used by every workload: medians and the tail rule of the
// benchmark — the highest nearest-rank percentile that still has at least
// ten samples beyond it, reported together with its sample count.

#include <string>
#include <vector>

namespace perfbench {

double median(std::vector<double> values);

struct Tail {
  double value = 0;       // the sample at the tail rank
  double percentile = 0;  // nearest-rank percentile of that sample
  long long beyond = 0;   // samples strictly above the tail rank
  long long samples = 0;
  long long slices = 1;   // > 1: value is the median over this many slices
  std::string label() const;  // e.g. "p68.6 (n=35, 11 beyond)"
};

/// With n >= 11 samples the tail rank is n-11 (0-based), so exactly ten
/// samples lie beyond it. With fewer samples no percentile qualifies and the
/// maximum is reported with its (short) count of samples beyond.
Tail tail_of(std::vector<double> values);

/// For long runs (at least two slices of `slice` samples, in arrival
/// order): the median over consecutive slices of each slice's tail, so one
/// short stall of the machine moves one slice, not the run's figure. Shorter
/// runs get tail_of over all samples.
Tail sliced_tail(const std::vector<double>& values, std::size_t slice = 1000);

}  // namespace perfbench

#include "stats.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail tail_of(std::vector<double> values) {
  Tail t;
  t.samples = static_cast<long long>(values.size());
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  const long long n = t.samples;
  const long long rank = n >= 11 ? n - 11 : n - 1;
  t.value = values[static_cast<std::size_t>(rank)];
  t.beyond = n - 1 - rank;
  t.percentile = 100.0 * static_cast<double>(rank + 1) / static_cast<double>(n);
  return t;
}

std::string Tail::label() const {
  char buf[128];
  if (slices > 1) {
    std::snprintf(buf, sizeof buf, "median over %lld slices of p%.2f (n=%lld, %lld beyond)",
                  slices, percentile, samples, beyond);
  } else {
    std::snprintf(buf, sizeof buf, "p%.2f (n=%lld, %lld beyond)", percentile, samples, beyond);
  }
  return buf;
}

Tail sliced_tail(const std::vector<double>& values, std::size_t slice) {
  const std::size_t k = values.size() / slice;
  if (k < 2) return tail_of(values);
  std::vector<double> tails;
  Tail t;
  for (std::size_t i = 0; i < k; ++i) {
    t = tail_of(std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(i * slice),
                                    values.begin() + static_cast<std::ptrdiff_t>((i + 1) * slice)));
    tails.push_back(t.value);
  }
  t.value = median(tails);
  t.slices = static_cast<long long>(k);
  return t;
}

}  // namespace perfbench

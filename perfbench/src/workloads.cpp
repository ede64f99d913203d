#include <unistd.h>

#include <cstdio>
#include <map>

#include "drc/checker.h"
#include "drc/rules.h"
#include "metrics/metrics.h"
#include "tier.h"
#include "workloads.h"

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + (i + 1) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t request_seed(std::uint64_t run_seed, std::uint64_t i) {
  return 1 + (mix_seed(run_seed, 0) % 1000000) * 100000 + i;
}

Quality quality_of(const std::vector<cp::squish::SquishPattern>& patterns,
                   const std::vector<std::string>& styles) {
  std::map<std::string, std::vector<cp::squish::SquishPattern>> by_style;
  for (std::size_t i = 0; i < patterns.size(); ++i) by_style[styles[i]].push_back(patterns[i]);
  Quality q;
  std::vector<cp::squish::Topology> legal;
  for (const auto& [style, group] : by_style) {
    const cp::drc::DesignRules rules = cp::drc::rules_for_style(style);
    const cp::metrics::LegalityResult r = cp::metrics::legality(group, rules);
    q.legal += r.legal;
    q.checked += r.total;
    for (const cp::squish::SquishPattern& p : group) {
      if (cp::drc::check(p, rules).clean()) legal.push_back(p.topology);
    }
  }
  q.diversity_bits = cp::metrics::diversity(legal);
  return q;
}

double self_peak_rss_mb() { return peak_rss_mb(::getpid()); }

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench

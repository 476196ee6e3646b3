#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "perfbench.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t delivery_digest(const std::vector<mr::Packet>& packets) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over (id, delivered_at)
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const mr::Packet& p : packets) {
    mix(static_cast<std::uint64_t>(p.id));
    mix(static_cast<std::uint64_t>(p.delivered_at));
  }
  return h;
}

void append_latencies(const std::vector<mr::Packet>& packets,
                      std::vector<double>* out) {
  for (const mr::Packet& p : packets)
    if (p.delivered()) out->push_back(static_cast<double>(p.delivered_at - p.injected_at));
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::operation(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

void Report::print() const {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              failed_ == 0 && attempted_ > 0 ? "true" : "false",
              static_cast<long long>(attempted_), static_cast<long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void EndToEnd::report(Report& report) const {
  report.metric("setup_s", median(setup_s), "s");
  report.metric("moves_per_s", median(moves_per_s), "hops/s");
  report.metric("sim_steps", static_cast<double>(sim_steps), "steps");
  report.metric("job_ms_p50", quantile(job_ms, 0.5), "ms");
  report.metric("job_ms_p90", quantile(job_ms, 0.9), "ms");
  report.metric("jobs_per_s",
                jobs_wall_s > 0 ? static_cast<double>(jobs) / jobs_wall_s : 0,
                "jobs/s");
  report.metric("sim_latency_p99_steps", sim_latency_p99_steps, "steps");
  report.metric("suite_s", median(suite_s), "s");
  report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
}

}  // namespace perfbench

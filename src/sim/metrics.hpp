// Standard metrics observer: latency and queue-occupancy distributions,
// delivery curve, movement counts. Purely observational.
#pragma once

#include <cstdint>
#include <vector>

#include "core/stats.hpp"
#include "sim/algorithm.hpp"

namespace mr {

/// Fixed set of latency quantiles reported by every run (the scenario
/// layer's structured metrics surface).
struct LatencySummary {
  double mean = 0;
  Step p50 = 0;
  Step p95 = 0;
  Step p99 = 0;
  Step max = 0;
};

/// LatencySummary over the delivered packets of `packets`
/// (delivered_at - injected_at each). Computed from final packet records
/// rather than streamed deliveries, so it is order-insensitive and a run
/// restored from a checkpoint reproduces the uninterrupted run's summary
/// exactly.
LatencySummary latency_summary_from_packets(const std::vector<Packet>& packets);

class MetricsObserver : public StepObserver {
 public:
  /// sample_every: occupancy distribution is sampled on every N-th step
  /// (it is O(active nodes) to collect). Under the PerInlink layout each
  /// non-empty inlink queue is sampled separately.
  explicit MetricsObserver(Step sample_every = 16)
      : sample_every_(sample_every) {}

  void on_prepare(const Sim& e, const StepDigest& d) override;
  void on_step(const Sim& e, const StepDigest& d) override;

  const Histogram& latency() const { return latency_; }
  LatencySummary latency_summary() const;
  const Histogram& occupancy() const { return occupancy_; }
  /// delivered_by_step()[t] = cumulative deliveries after step t;
  /// [0] counts the source==dest packets delivered during prepare().
  const std::vector<std::int64_t>& delivered_by_step() const {
    return delivered_by_step_;
  }
  /// First step by which at least ceil(fraction * total) packets had been
  /// delivered (0 when prepare()-time deliveries already satisfy it).
  Step completion_step(double fraction, std::size_t total) const;

 private:
  /// Counts every delivery in `d` and adds its latency to the histogram.
  void count_deliveries(const Sim& e, const StepDigest& d);
  void sample_occupancy(const Sim& e);

  Step sample_every_;
  Histogram latency_;
  Histogram occupancy_;
  std::vector<std::int64_t> delivered_by_step_;
  std::int64_t delivered_so_far_ = 0;
};

}  // namespace mr

#include "sim/metrics.hpp"

#include <cmath>

#include "sim/sim.hpp"

namespace mr {

void MetricsObserver::on_prepare(const Sim& e, const StepDigest& d) {
  // Entry for step 0: deliveries that happened during prepare()
  // (source==dest packets) belong to the curve, not to step 1.
  count_deliveries(e, d);
  delivered_by_step_.push_back(delivered_so_far_);
}

void MetricsObserver::count_deliveries(const Sim& e, const StepDigest& d) {
  const auto add = [&](PacketId p) {
    const Packet& pk = e.packet(p);
    latency_.add(pk.delivered_at - pk.injected_at);
    ++delivered_so_far_;
  };
  for (PacketId p : d.injected_deliveries) add(p);
  for (const MoveRecord& m : d.moves)
    if (m.delivered) add(m.packet);
}

void MetricsObserver::sample_occupancy(const Sim& e) {
  // Only nodes holding packets can have non-zero occupancy, so sampling is
  // O(active nodes). Under the per-inlink layout every one of the (up to
  // four) queues is its own sample; lumping them into a whole-node count
  // would distort the histogram against the per-queue bound k.
  const bool per_inlink = e.queue_layout() == QueueLayout::PerInlink;
  for (NodeId u : e.active_nodes()) {
    if (per_inlink) {
      for (QueueTag t = 0; t < kNumDirs; ++t) {
        const int occ = e.occupancy(u, t);
        if (occ > 0) occupancy_.add(occ);
      }
    } else {
      const int occ = e.occupancy(u);
      if (occ > 0) occupancy_.add(occ);
    }
  }
}

void MetricsObserver::on_step(const Sim& e, const StepDigest& d) {
  count_deliveries(e, d);
  delivered_by_step_.push_back(delivered_so_far_);
  if (sample_every_ > 0 && d.step % sample_every_ == 0) sample_occupancy(e);
}

LatencySummary latency_summary_from_packets(const std::vector<Packet>& packets) {
  Histogram h;
  for (const Packet& p : packets)
    if (p.delivered()) h.add(p.delivered_at - p.injected_at);
  LatencySummary s;
  if (h.total() == 0) return s;
  s.mean = h.mean();
  s.p50 = h.percentile(0.5);
  s.p95 = h.percentile(0.95);
  s.p99 = h.percentile(0.99);
  s.max = h.max();
  return s;
}

LatencySummary MetricsObserver::latency_summary() const {
  LatencySummary s;
  s.mean = latency_.mean();
  s.p50 = latency_.percentile(0.5);
  s.p95 = latency_.percentile(0.95);
  s.p99 = latency_.percentile(0.99);
  s.max = latency_.max();
  return s;
}

Step MetricsObserver::completion_step(double fraction,
                                      std::size_t total) const {
  // Ceiling: "half of 5 delivered" means 3 packets, not 2. The epsilon
  // guards against fraction*total landing epsilon above an integer.
  const auto target = static_cast<std::int64_t>(
      std::ceil(fraction * static_cast<double>(total) - 1e-9));
  for (std::size_t t = 0; t < delivered_by_step_.size(); ++t)
    if (delivered_by_step_[t] >= target) return static_cast<Step>(t);
  return delivered_by_step_.empty()
             ? 0
             : static_cast<Step>(delivered_by_step_.size() - 1);
}

}  // namespace mr

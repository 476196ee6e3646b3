#include <gtest/gtest.h>

#include "routing/registry.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr {
namespace {

TEST(Metrics, DeliveryCurveIsMonotoneAndComplete) {
  const Mesh mesh = Mesh::square(10);
  auto algo = make_algorithm("bounded-dimension-order");
  Engine::Config config;
  config.queue_capacity = 2;
  Engine e(mesh, config, *algo);
  const Workload w = random_permutation(mesh, 6);
  for (const Demand& d : w) e.add_packet(d.source, d.dest, d.injected_at);
  MetricsObserver metrics(/*sample_every=*/1);
  e.add_observer(&metrics);
  e.prepare();
  e.run(10000);
  ASSERT_TRUE(e.all_delivered());

  const auto& curve = metrics.delivered_by_step();
  ASSERT_FALSE(curve.empty());
  for (std::size_t t = 1; t < curve.size(); ++t)
    EXPECT_GE(curve[t], curve[t - 1]);
  EXPECT_EQ(curve.back(), std::int64_t(w.size()) -
                              std::int64_t(metrics.latency().count_at(0)) +
                              std::int64_t(metrics.latency().count_at(0)));
  EXPECT_EQ(curve.back(), std::int64_t(w.size()));
}

TEST(Metrics, CompletionStepMatchesCurve) {
  const Mesh mesh = Mesh::square(10);
  auto algo = make_algorithm("bounded-dimension-order");
  Engine::Config config;
  config.queue_capacity = 2;
  Engine e(mesh, config, *algo);
  const Workload w = random_permutation(mesh, 9);
  for (const Demand& d : w) e.add_packet(d.source, d.dest, d.injected_at);
  MetricsObserver metrics;
  e.add_observer(&metrics);
  e.prepare();
  const Step total = e.run(10000);
  ASSERT_TRUE(e.all_delivered());
  EXPECT_EQ(metrics.completion_step(1.0, w.size()), total);
  EXPECT_LE(metrics.completion_step(0.5, w.size()), total);
  EXPECT_GE(metrics.completion_step(0.5, w.size()), 1);
}

TEST(Metrics, CompletionStepUsesCeiling) {
  const Mesh mesh = Mesh::square(8);
  auto algo = make_algorithm("dimension-order");
  Engine::Config config;
  config.queue_capacity = 4;
  Engine e(mesh, config, *algo);
  // Five uncontended packets in distinct rows, delivered at steps 1..5.
  for (std::int32_t r = 0; r < 5; ++r)
    e.add_packet(mesh.id_of(0, r), mesh.id_of(r + 1, r));
  MetricsObserver metrics;
  e.add_observer(&metrics);
  e.prepare();
  e.run(100);
  ASSERT_TRUE(e.all_delivered());
  // "Half of 5" is 3 packets (ceiling), first reached after step 3. A
  // truncating implementation would report step 2.
  EXPECT_EQ(metrics.completion_step(0.5, 5), 3);
  EXPECT_EQ(metrics.completion_step(0.4, 5), 2);  // ceil(2.0) = 2 exactly
  EXPECT_EQ(metrics.completion_step(1.0, 5), 5);
}

TEST(Metrics, PrepareTimeDeliveriesCountAtStepZero) {
  const Mesh mesh = Mesh::square(4);
  auto algo = make_algorithm("dimension-order");
  Engine::Config config;
  config.queue_capacity = 2;
  Engine e(mesh, config, *algo);
  // Two source==dest packets deliver during prepare(), one travels, and a
  // fourth source==dest packet is injected (and so delivered) at step 3.
  e.add_packet(mesh.id_of(1, 1), mesh.id_of(1, 1));
  e.add_packet(mesh.id_of(2, 2), mesh.id_of(2, 2));
  e.add_packet(mesh.id_of(0, 0), mesh.id_of(2, 0));
  const PacketId late = e.add_packet(mesh.id_of(3, 3), mesh.id_of(3, 3), 3);
  MetricsObserver metrics;
  e.add_observer(&metrics);
  TraceRecorder trace;
  e.add_observer(&trace);
  e.prepare();
  e.run(100);
  ASSERT_TRUE(e.all_delivered());
  const auto& curve = metrics.delivered_by_step();
  ASSERT_EQ(curve.size(), 4u);
  EXPECT_EQ(curve[0], 2);  // delivered before step 1
  EXPECT_EQ(curve[2], 3);  // the travelling packet arrives at step 2
  EXPECT_EQ(curve[3], 4);  // the step-3 injection delivers at once
  // Half of the demand was already met at prepare time.
  EXPECT_EQ(metrics.completion_step(0.5, 4), 0);
  EXPECT_EQ(metrics.completion_step(0.75, 4), 2);
  EXPECT_EQ(metrics.completion_step(1.0, 4), 3);
  EXPECT_EQ(metrics.latency().count_at(0), 3);

  std::vector<TraceEvent> late_events = trace.packet_history(late);
  ASSERT_EQ(late_events.size(), 1u);
  EXPECT_EQ(late_events[0].kind, TraceEventKind::Deliver);
  EXPECT_EQ(late_events[0].step, 3);
}

TEST(Metrics, PerInlinkOccupancySamplesEachQueueSeparately) {
  const Mesh mesh = Mesh::square(4);
  auto algo = make_algorithm("bounded-dimension-order");
  ASSERT_EQ(algo->queue_layout(), QueueLayout::PerInlink);
  Engine::Config config;
  config.queue_capacity = 2;
  Engine e(mesh, config, *algo);
  // Both packets pass through (1,1) on step 1 — one arriving on the west
  // inlink, one on the south inlink. Each per-inlink queue holds one
  // packet; a layout-blind sampler would lump them into a sample of 2.
  e.add_packet(mesh.id_of(0, 1), mesh.id_of(3, 1));
  e.add_packet(mesh.id_of(1, 0), mesh.id_of(1, 3));
  MetricsObserver metrics(/*sample_every=*/1);
  e.add_observer(&metrics);
  e.prepare();
  e.run(100);
  ASSERT_TRUE(e.all_delivered());
  EXPECT_GT(metrics.occupancy().total(), 0);
  EXPECT_EQ(metrics.occupancy().max(), 1);
}

TEST(Metrics, LatencyDistributionMatchesPackets) {
  const Mesh mesh = Mesh::square(8);
  auto algo = make_algorithm("dimension-order");
  Engine::Config config;
  config.queue_capacity = 8;
  Engine e(mesh, config, *algo);
  // Three packets with known uncontended latencies 3, 7, 14.
  e.add_packet(mesh.id_of(0, 0), mesh.id_of(3, 0));
  e.add_packet(mesh.id_of(0, 1), mesh.id_of(7, 1));
  e.add_packet(mesh.id_of(0, 7), mesh.id_of(7, 0));
  MetricsObserver metrics;
  e.add_observer(&metrics);
  e.prepare();
  e.run(100);
  ASSERT_TRUE(e.all_delivered());
  EXPECT_EQ(metrics.latency().total(), 3);
  EXPECT_EQ(metrics.latency().min(), 3);
  EXPECT_EQ(metrics.latency().max(), 14);
  EXPECT_EQ(metrics.latency().count_at(7), 1);
}

TEST(Metrics, OccupancySamplesOnlyNonEmpty) {
  const Mesh mesh = Mesh::square(8);
  auto algo = make_algorithm("dimension-order");
  Engine::Config config;
  config.queue_capacity = 4;
  Engine e(mesh, config, *algo);
  e.add_packet(mesh.id_of(0, 0), mesh.id_of(7, 7));
  MetricsObserver metrics(/*sample_every=*/1);
  e.add_observer(&metrics);
  e.prepare();
  e.run(100);
  // One packet in flight: every sample is exactly occupancy 1.
  EXPECT_EQ(metrics.occupancy().min(), 1);
  EXPECT_EQ(metrics.occupancy().max(), 1);
  EXPECT_GT(metrics.occupancy().total(), 0);
}

}  // namespace
}  // namespace mr

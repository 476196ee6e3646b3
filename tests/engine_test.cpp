#include <gtest/gtest.h>

#include <chrono>

#include "routing/dimension_order.hpp"
#include "routing/registry.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "topo/mesh.hpp"

namespace mr {
namespace {

Engine::Config cfg(int k) {
  Engine::Config c;
  c.queue_capacity = k;
  return c;
}

TEST(Engine, SinglePacketStraightLine) {
  const Mesh m = Mesh::square(8);
  DimensionOrderRouter algo;
  Engine e(m, cfg(1), algo);
  e.add_packet(m.id_of(0, 0), m.id_of(5, 0));
  e.prepare();
  const Step steps = e.run(100);
  EXPECT_TRUE(e.all_delivered());
  EXPECT_EQ(steps, 5);  // one hop per step, delivered on arrival
  EXPECT_EQ(e.packet(0).delivered_at, 5);
}

TEST(Engine, PacketAtDestinationDeliversImmediately) {
  const Mesh m = Mesh::square(4);
  DimensionOrderRouter algo;
  Engine e(m, cfg(1), algo);
  e.add_packet(m.id_of(2, 2), m.id_of(2, 2));
  e.prepare();
  EXPECT_TRUE(e.all_delivered());
  EXPECT_EQ(e.packet(0).delivered_at, 0);
}

TEST(Engine, DimensionOrderPathIsRowFirst) {
  const Mesh m = Mesh::square(8);
  DimensionOrderRouter algo;
  Engine e(m, cfg(2), algo);
  e.add_packet(m.id_of(1, 1), m.id_of(4, 6));
  e.prepare();

  // Track the trajectory via an observer.
  struct Tracker : StepObserver {
    std::vector<NodeId> path;
    void on_step(const Sim&, const StepDigest& d) override {
      for (const MoveRecord& m : d.moves) path.push_back(m.to);
    }
  };
  // Observers must be added before prepare, so rebuild.
  Engine e2(m, cfg(2), algo);
  e2.add_packet(m.id_of(1, 1), m.id_of(4, 6));
  Tracker tracker;
  e2.add_observer(&tracker);
  e2.prepare();
  e2.run(100);
  ASSERT_TRUE(e2.all_delivered());
  ASSERT_EQ(tracker.path.size(), 8u);  // 3 east + 5 north
  EXPECT_EQ(tracker.path[0], m.id_of(2, 1));
  EXPECT_EQ(tracker.path[2], m.id_of(4, 1));
  EXPECT_EQ(tracker.path[3], m.id_of(4, 2));
  EXPECT_EQ(tracker.path.back(), m.id_of(4, 6));
}

TEST(Engine, QueueCapacityIsRespected) {
  // Many packets funnel through one column; with k=2 the engine must never
  // observe more than 2 packets in a queue.
  const Mesh m = Mesh::square(8);
  DimensionOrderRouter algo;
  Engine e(m, cfg(2), algo);
  for (std::int32_t c = 0; c < 8; ++c)
    e.add_packet(m.id_of(c, 0), m.id_of(7, 7));  // not a permutation: h-h-ish
  e.prepare();
  e.run(500);
  EXPECT_TRUE(e.all_delivered());
  EXPECT_LE(e.max_occupancy_seen(), 2);
}

TEST(Engine, MinimalityEnforced) {
  // An algorithm that tries an unprofitable move must be rejected.
  class BadAlgo : public Algorithm {
   public:
    std::string name() const override { return "bad"; }
    void plan_out(Sim& e, NodeId u, OutPlan& plan) override {
      // Schedule the packet *away* from its destination.
      const PacketId p = e.packets_at(u)[0];
      const DirMask good = e.profitable_mask(p);
      for (Dir d : kAllDirs) {
        if (!mask_has(good, d) && e.mesh().neighbor(u, d) != kInvalidNode) {
          plan.schedule(d, p);
          return;
        }
      }
    }
    void plan_in(Sim&, NodeId, std::span<const Offer> offers,
                 InPlan& plan) override {
      plan.reset(offers.size());
    }
  };
  const Mesh m = Mesh::square(4);
  BadAlgo algo;
  Engine e(m, cfg(1), algo);
  // Interior start so an unprofitable outlink with a live neighbour exists.
  e.add_packet(m.id_of(1, 1), m.id_of(3, 3));
  e.prepare();
  EXPECT_THROW(e.step_once(), InvariantViolation);
}

TEST(Engine, DeterministicFingerprints) {
  const Mesh m = Mesh::square(10);
  auto run_and_fingerprint = [&](Step steps) {
    auto algo = make_algorithm("adaptive-alternate");
    Engine e(m, cfg(1), *algo);
    int id = 0;
    for (std::int32_t c = 0; c < 10; ++c, ++id)
      e.add_packet(m.id_of(c, 0), m.id_of(9 - c, 9));
    e.prepare();
    for (Step t = 0; t < steps; ++t) e.step_once();
    return e.fingerprint();
  };
  EXPECT_EQ(run_and_fingerprint(7), run_and_fingerprint(7));
  EXPECT_NE(run_and_fingerprint(3), run_and_fingerprint(7));
}

TEST(Engine, DelayedInjection) {
  const Mesh m = Mesh::square(6);
  DimensionOrderRouter algo;
  Engine e(m, cfg(1), algo);
  e.add_packet(m.id_of(0, 0), m.id_of(3, 0), /*injected_at=*/5);
  e.prepare();
  e.step_once();  // t=1: nothing present yet
  EXPECT_EQ(e.delivered_count(), 0u);
  EXPECT_EQ(e.occupancy(m.id_of(0, 0)), 0);
  e.run(100);
  EXPECT_TRUE(e.all_delivered());
  // Appears at the start of step 5 and moves that same step: 3 hops land
  // it at steps 5, 6, 7.
  EXPECT_EQ(e.packet(0).delivered_at, 7);
}

TEST(Engine, InjectionWaitsWhenQueueFull) {
  // Two packets at the same source with k=1: the second waits outside the
  // network until the first departs (§5 dynamic h-h setting).
  const Mesh m = Mesh::square(6);
  DimensionOrderRouter algo;
  Engine e(m, cfg(1), algo);
  e.add_packet(m.id_of(0, 0), m.id_of(4, 0));
  e.add_packet(m.id_of(0, 0), m.id_of(0, 4));
  e.prepare();
  EXPECT_EQ(e.occupancy(m.id_of(0, 0)), 1);
  e.run(100);
  EXPECT_TRUE(e.all_delivered());
  EXPECT_LE(e.max_occupancy_seen(), 1);
}

TEST(Engine, ExchangeOutsideInterceptorThrows) {
  const Mesh m = Mesh::square(4);
  DimensionOrderRouter algo;
  Engine e(m, cfg(1), algo);
  e.add_packet(m.id_of(0, 0), m.id_of(3, 0));
  e.add_packet(m.id_of(0, 1), m.id_of(3, 1));
  e.prepare();
  EXPECT_THROW(e.exchange_destinations(0, 1), InvariantViolation);
}

TEST(Engine, InterceptorExchangeSwapsDestinations) {
  const Mesh m = Mesh::square(6);
  class Swapper : public StepInterceptor {
   public:
    bool done = false;
    void after_schedule(Sim& e, std::span<const ScheduledMove>) override {
      if (!done) {
        e.exchange_destinations(0, 1);
        done = true;
      }
    }
  };
  DimensionOrderRouter algo;
  Engine e(m, cfg(1), algo);
  // Both packets northeast-bound with overlapping profitable sets, so the
  // swap keeps scheduled moves minimal.
  e.add_packet(m.id_of(0, 0), m.id_of(4, 5));
  e.add_packet(m.id_of(1, 0), m.id_of(5, 4));
  Swapper swapper;
  e.set_interceptor(&swapper);
  e.prepare();
  e.step_once();
  EXPECT_EQ(e.packet(0).dest, m.id_of(5, 4));
  EXPECT_EQ(e.packet(1).dest, m.id_of(4, 5));
  EXPECT_EQ(e.exchange_count(), 1u);
}

TEST(Engine, InterceptorTimeIsBookedToItsPhase) {
  // Phase (b) runs inside the phase-(a) band task; the profile must still
  // book the interceptor's wall time to StepPhase::Interceptor.
  class Spinner : public StepInterceptor {
   public:
    void after_schedule(Sim&, std::span<const ScheduledMove>) override {
      using Clock = std::chrono::steady_clock;
      const Clock::time_point until =
          Clock::now() + std::chrono::microseconds(50);
      while (Clock::now() < until) {
      }
    }
  };
  const Mesh m = Mesh::square(6);
  DimensionOrderRouter algo;
  Engine e(m, cfg(1), algo);
  // Row-first paths on disjoint rows and columns: no contention.
  e.add_packet(m.id_of(0, 0), m.id_of(5, 5));
  e.add_packet(m.id_of(5, 5), m.id_of(0, 0));
  Spinner spinner;
  e.set_interceptor(&spinner);
  e.set_phase_profiling(true);
  e.prepare();
  e.run(100);
  ASSERT_TRUE(e.all_delivered());
  const PhaseProfile& profile = e.phase_profile();
  EXPECT_EQ(profile.steps, e.step());
  EXPECT_GE(profile.seconds[static_cast<int>(StepPhase::Interceptor)],
            static_cast<double>(e.step()) * 50e-6);
}

TEST(Engine, FrozenNetworkStepsAreSkippedNotTimed) {
  // Four packets on a 2×2 mesh with k = 1, each bound for the opposite
  // corner: every queue is full and every first hop targets a full
  // neighbour, so nothing moves from step 1. run() jumps whole periods of
  // the frozen network; the profile counts them apart from the executed,
  // timed steps.
  const Mesh m = Mesh::square(2);
  DimensionOrderRouter algo;
  Engine::Config config = cfg(1);
  config.stall_limit = 1000;
  Engine e(m, config, algo);
  e.add_packet(m.id_of(0, 0), m.id_of(1, 1));
  e.add_packet(m.id_of(1, 0), m.id_of(0, 1));
  e.add_packet(m.id_of(1, 1), m.id_of(0, 0));
  e.add_packet(m.id_of(0, 1), m.id_of(1, 0));
  e.set_phase_profiling(true);
  e.prepare();
  EXPECT_EQ(e.run(100000), 1000);  // the 1000th idle step trips the stall
  EXPECT_TRUE(e.stalled());
  EXPECT_EQ(e.delivered_count(), 0u);
  const PhaseProfile& profile = e.phase_profile();
  EXPECT_EQ(profile.steps + profile.skipped_steps, e.step());
  // The rotating inqueue pointer repeats every 4 steps. Detection takes a
  // few steps, and the part period before the stall is executed.
  EXPECT_EQ(profile.skipped_steps % 4, 0);
  EXPECT_GT(profile.skipped_steps, 900);
  EXPECT_GT(profile.total_seconds, 0.0);
}

/// Pathological router that never schedules or accepts anything — the
/// whole network is one big deadlock from step 1.
class FrozenRouter : public Algorithm {
 public:
  std::string name() const override { return "frozen"; }
  void plan_out(Sim&, NodeId, OutPlan&) override {}
  void plan_in(Sim&, NodeId, std::span<const Offer>,
               InPlan& plan) override {
    (void)plan;  // arrives reset: reject all
  }
};

TEST(Engine, StallDetectedWithPacketsWaitingOutside) {
  // Two packets share a source with k=1: the second never enters the
  // network and sits in the external buffer. A deadlocked network must
  // still be reported as stalled — packets waiting outside can only enter
  // once something moves, so they are not progress.
  const Mesh m = Mesh::square(4);
  FrozenRouter algo;
  Engine::Config config = cfg(1);
  config.stall_limit = 5;
  Engine e(m, config, algo);
  e.add_packet(m.id_of(0, 0), m.id_of(3, 0));
  e.add_packet(m.id_of(0, 0), m.id_of(0, 3));
  e.prepare();
  const Step steps = e.run(1000);
  EXPECT_TRUE(e.stalled());
  EXPECT_FALSE(e.all_delivered());
  EXPECT_LE(steps, 6);  // aborted at the stall limit, not the step cap
}

TEST(Engine, FutureInjectionIsNotAStall) {
  // An idle network awaiting a future-dated injection is not stalled: the
  // pending injection is exogenous progress.
  const Mesh m = Mesh::square(4);
  DimensionOrderRouter algo;
  Engine::Config config = cfg(1);
  config.stall_limit = 10;
  Engine e(m, config, algo);
  e.add_packet(m.id_of(0, 0), m.id_of(3, 0), /*injected_at=*/50);
  e.prepare();
  e.run(1000);
  EXPECT_FALSE(e.stalled());
  EXPECT_TRUE(e.all_delivered());
  // Enters its queue at the start of step 50, then three hops.
  EXPECT_EQ(e.packet(0).delivered_at, 52);
}

TEST(Engine, MetricsLatencyMatchesDeliveredAt) {
  const Mesh m = Mesh::square(8);
  DimensionOrderRouter algo;
  Engine e(m, cfg(1), algo);
  e.add_packet(m.id_of(0, 0), m.id_of(7, 0));
  MetricsObserver metrics;
  e.add_observer(&metrics);
  e.prepare();
  e.run(100);
  EXPECT_EQ(metrics.latency().max(), 7);
  EXPECT_EQ(metrics.latency().total(), 1);
}

}  // namespace
}  // namespace mr

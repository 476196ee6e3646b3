// Additional §6 coverage: degenerate workloads, direction classes, partial
// permutations, schedule structure of the improved variant, and segment
// accounting.
#include <gtest/gtest.h>

#include "fastroute/bounds.hpp"
#include "fastroute/fastroute.hpp"
#include "sim/engine.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr {
namespace {

struct FastRun {
  Step steps = 0;
  bool delivered = false;
  int max_queue = 0;
};

FastRun go(std::int32_t n, const Workload& w,
       FastRouteAlgorithm::Options options =
           FastRouteAlgorithm::Options::baseline()) {
  const Mesh mesh = Mesh::square(n);
  FastRouteAlgorithm algo(options);
  Engine::Config config;
  config.queue_capacity = algo.queue_bound();
  config.stall_limit = 0;
  Engine e(mesh, config, algo);
  for (const Demand& d : w) e.add_packet(d.source, d.dest, d.injected_at);
  e.prepare();
  FastRun r;
  r.steps = e.run(algo.schedule_length() + 1);
  r.delivered = e.all_delivered();
  r.max_queue = e.max_occupancy_seen();
  return r;
}

TEST(FastRouteExtra, EmptyWorkload) {
  const FastRun r = go(27, {});
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.steps, 0);
}

TEST(FastRouteExtra, AllFourDirectionClasses) {
  const Mesh mesh = Mesh::square(27);
  Workload w;
  w.push_back(Demand{mesh.id_of(2, 2), mesh.id_of(20, 22), 0});   // NE
  w.push_back(Demand{mesh.id_of(24, 3), mesh.id_of(4, 21), 0});   // NW
  w.push_back(Demand{mesh.id_of(22, 23), mesh.id_of(3, 2), 0});   // SW
  w.push_back(Demand{mesh.id_of(1, 25), mesh.id_of(19, 5), 0});   // SE
  // Pure axis movers, one per class convention.
  w.push_back(Demand{mesh.id_of(5, 5), mesh.id_of(5, 20), 0});    // N (NE)
  w.push_back(Demand{mesh.id_of(20, 8), mesh.id_of(4, 8), 0});    // W (NW)
  w.push_back(Demand{mesh.id_of(9, 20), mesh.id_of(9, 4), 0});    // S (SW)
  w.push_back(Demand{mesh.id_of(3, 13), mesh.id_of(22, 13), 0});  // E (SE)
  const FastRun r = go(27, w);
  EXPECT_TRUE(r.delivered);
}

TEST(FastRouteExtra, SelfDeliveries) {
  const Mesh mesh = Mesh::square(27);
  Workload w;
  for (NodeId u = 0; u < 27; ++u) w.push_back(Demand{u, u, 0});
  const FastRun r = go(27, w);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.steps, 0);  // everything delivered at injection
}

TEST(FastRouteExtra, HalfLoadPartialPermutation) {
  const Mesh mesh = Mesh::square(27);
  const FastRun r = go(27, random_partial_permutation(mesh, 0.5, 9));
  EXPECT_TRUE(r.delivered);
}

TEST(FastRouteExtra, AdjacentDestinations) {
  // Every packet one hop from home: exercised almost entirely by the base
  // cases.
  const Mesh mesh = Mesh::square(27);
  Workload w;
  for (std::int32_t c = 0; c + 1 < 27; c += 2)
    for (std::int32_t r = 0; r < 27; r += 2)
      w.push_back(Demand{mesh.id_of(c, r), mesh.id_of(c + 1, r), 0});
  const FastRun r = go(27, w);
  EXPECT_TRUE(r.delivered);
}

TEST(FastRouteExtra, RotationWorkload) {
  const Mesh mesh = Mesh::square(27);
  const FastRun r = go(27, rotation(mesh, 13, 7));
  EXPECT_TRUE(r.delivered);
  EXPECT_LE(r.steps, FastRouteBounds::theorem34_steps(27));
}

TEST(FastRouteExtra, ScheduleAccounting) {
  FastRouteAlgorithm algo;
  const Mesh mesh = Mesh::square(81);
  Engine::Config config;
  config.queue_capacity = algo.queue_bound();
  Engine e(mesh, config, algo);
  e.add_packet(0, mesh.num_nodes() - 1);
  e.prepare();
  // Segments are contiguous, cover [0, schedule_length), and respect the
  // per-iteration structure: j=0 has 1 tiling, j=1 has 3, each phase is
  // March, SSeven, SSodd, Balance; plus one base case per class.
  Step expected_start = 0;
  int base_cases = 0;
  for (const auto& seg : algo.segments()) {
    EXPECT_EQ(seg.start, expected_start);
    EXPECT_GE(seg.length, 1);
    expected_start += seg.length;
    if (seg.kind == FastRouteAlgorithm::Kind::BaseCase) {
      ++base_cases;
      EXPECT_EQ(seg.length, FastRouteBounds::base_case_steps());
    }
    if (seg.kind == FastRouteAlgorithm::Kind::March) {
      const int q = seg.j == 0 ? 408 : 408;
      EXPECT_EQ(seg.length, Step(q) * seg.d - 1);
    }
    if (seg.kind == FastRouteAlgorithm::Kind::Balance) {
      EXPECT_EQ(seg.length, 3 * Step(seg.tile) - 4);
    }
  }
  EXPECT_EQ(expected_start, algo.schedule_length());
  EXPECT_EQ(base_cases, 4);
  // n=81: per class (1 + 3) tilings × 2 phases × 4 segments + base = 33.
  EXPECT_EQ(algo.segments().size(), 4u * (4u * 2u * 4u + 1u));
}

TEST(FastRouteExtra, ImprovedScheduleUsesSmallerQ) {
  FastRouteAlgorithm base(FastRouteAlgorithm::Options::baseline());
  FastRouteAlgorithm improved(FastRouteAlgorithm::Options::improved());
  const Mesh mesh = Mesh::square(81);
  for (FastRouteAlgorithm* a : {&base, &improved}) {
    Engine::Config config;
    config.queue_capacity = a->queue_bound();
    Engine e(mesh, config, *a);
    e.add_packet(0, 5);
    e.prepare();
  }
  // Same number of segments, shorter j>=1 March/SS segments.
  ASSERT_EQ(base.segments().size(), improved.segments().size());
  bool some_shorter = false;
  for (std::size_t i = 0; i < base.segments().size(); ++i) {
    const auto& b = base.segments()[i];
    const auto& m = improved.segments()[i];
    EXPECT_EQ(int(b.kind), int(m.kind));
    if (b.j >= 1 && b.kind == FastRouteAlgorithm::Kind::March) {
      EXPECT_LT(m.length, b.length);
      some_shorter = true;
    }
  }
  EXPECT_TRUE(some_shorter);
  EXPECT_LT(improved.schedule_length(), base.schedule_length());
}

TEST(FastRouteExtra, KindAndClassNames) {
  EXPECT_STREQ(FastRouteAlgorithm::kind_name(
                   FastRouteAlgorithm::Kind::March),
               "March");
  EXPECT_STREQ(FastRouteAlgorithm::class_name(0), "NE");
  EXPECT_STREQ(FastRouteAlgorithm::class_name(3), "SE");
}

}  // namespace
}  // namespace mr

// §6 algorithm (Theorem 34): correctness (delivery + minimality), the
// Lemma 28 queue bound, the Theorem 34 / improved step bounds, and the
// Lemma 19 tiling cover property. The per-phase Lemmas 29–32 are checked
// online by FastRouteAlgorithm itself (it throws on violation), so any
// completed run certifies them.
#include <gtest/gtest.h>

#include "check/oracles.hpp"
#include "fastroute/bounds.hpp"
#include "fastroute/fastroute.hpp"
#include "fastroute/tiling.hpp"
#include "sim/engine.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr {
namespace {

struct FastRunResult {
  Step steps = 0;
  bool all_delivered = false;
  int max_queue = 0;
  Step schedule_length = 0;
};

FastRunResult run_fastroute(std::int32_t n, const Workload& w,
                            FastRouteAlgorithm::Options options =
                                FastRouteAlgorithm::Options::baseline()) {
  const Mesh mesh = Mesh::square(n);
  FastRouteAlgorithm algo(options);
  Engine::Config config;
  config.queue_capacity = 2 * options.q0 + 18;  // Lemma 28
  config.stall_limit = 0;  // idle phases are part of the schedule
  Engine e(mesh, config, algo);
  for (const Demand& d : w) e.add_packet(d.source, d.dest, d.injected_at);

  ProfitableMoveOracle minimal(/*minimal=*/true);
  e.add_observer(&minimal);
  e.prepare();

  FastRunResult r;
  r.schedule_length = algo.schedule_length();
  r.steps = e.run(algo.schedule_length() + 1);
  r.all_delivered = e.all_delivered();
  r.max_queue = e.max_occupancy_seen();
  return r;
}

TEST(Tiling, OriginsPartitionTheMesh) {
  for (int offset = 0; offset < 3; ++offset) {
    const Tiling t(81, 27, offset);
    for (std::int32_t x = 0; x < 81; ++x) {
      const std::int32_t o = t.origin1d(x);
      EXPECT_LE(o, x);
      EXPECT_LT(x, o + 27);
      EXPECT_EQ((o + offset * 9) % 27, 0);
    }
  }
}

TEST(Tiling, Lemma19CoverExhaustive) {
  // Any two nodes within T/3 in both dimensions share a tile of one of the
  // three tilings — exhaustively on a 27-mesh with T = 9.
  const std::int32_t n = 27, T = 9, h = T / 3;
  for (std::int32_t ac = 0; ac < n; ++ac)
    for (std::int32_t ar = 0; ar < n; ++ar)
      for (std::int32_t dc = -h; dc <= h; ++dc)
        for (std::int32_t dr = -h; dr <= h; ++dr) {
          const Coord a{ac, ar};
          const Coord b{ac + dc, ar + dr};
          if (b.col < 0 || b.col >= n || b.row < 0 || b.row >= n) continue;
          EXPECT_NE(covering_tiling(n, T, a, b), -1)
              << "(" << ac << "," << ar << ") vs (" << b.col << "," << b.row
              << ")";
        }
}

TEST(FastRoute, ScheduleShape) {
  FastRouteAlgorithm algo;
  const Mesh mesh = Mesh::square(27);
  Engine::Config config;
  config.queue_capacity = algo.queue_bound();
  Engine e(mesh, config, algo);
  e.add_packet(0, mesh.num_nodes() - 1);
  e.prepare();
  // n = 27: per class one iteration (j=0, single tiling, vertical +
  // horizontal) and a base case: 4·(2·4 + 1) = 36 segments.
  EXPECT_EQ(algo.segments().size(), 36u);
  // Theorem 34: the schedule is below 972n even with the loose constants.
  EXPECT_LE(algo.schedule_length(), FastRouteBounds::theorem34_steps(27));
}

TEST(FastRoute, SinglePacket) {
  const Mesh mesh = Mesh::square(27);
  Workload w{Demand{mesh.id_of(3, 4), mesh.id_of(20, 22), 0}};
  const FastRunResult r = run_fastroute(27, w);
  EXPECT_TRUE(r.all_delivered);
}

TEST(FastRoute, RandomPermutation27) {
  const Mesh mesh = Mesh::square(27);
  const FastRunResult r = run_fastroute(27, random_permutation(mesh, 11));
  EXPECT_TRUE(r.all_delivered);
  EXPECT_LE(r.steps, FastRouteBounds::theorem34_steps(27));
  FastRouteBounds bounds;
  EXPECT_LE(r.max_queue, bounds.total_queue_bound());
}

TEST(FastRoute, Transpose27) {
  const Mesh mesh = Mesh::square(27);
  const FastRunResult r = run_fastroute(27, transpose(mesh));
  EXPECT_TRUE(r.all_delivered);
}

TEST(FastRoute, Mirror27) {
  const Mesh mesh = Mesh::square(27);
  const FastRunResult r = run_fastroute(27, mirror(mesh));
  EXPECT_TRUE(r.all_delivered);
}

TEST(FastRoute, RandomPermutation81) {
  const Mesh mesh = Mesh::square(81);
  const FastRunResult r = run_fastroute(81, random_permutation(mesh, 7));
  EXPECT_TRUE(r.all_delivered);
  EXPECT_LE(r.steps, FastRouteBounds::theorem34_steps(81));
}

TEST(FastRoute, ImprovedVariantIsFasterSchedule) {
  const Mesh mesh = Mesh::square(81);
  const FastRunResult baseline =
      run_fastroute(81, random_permutation(mesh, 7));
  const FastRunResult improved = run_fastroute(
      81, random_permutation(mesh, 7), FastRouteAlgorithm::Options::improved());
  EXPECT_TRUE(improved.all_delivered);
  EXPECT_LT(improved.schedule_length, baseline.schedule_length);
  EXPECT_LE(improved.steps, FastRouteBounds::improved_steps(81));
}

TEST(FastRoute, RejectsBadMeshes) {
  FastRouteAlgorithm algo;
  const Mesh mesh = Mesh::square(32);  // not a power of 3
  Engine::Config config;
  config.queue_capacity = algo.queue_bound();
  Engine e(mesh, config, algo);
  e.add_packet(0, 5);
  EXPECT_THROW(e.prepare(), InvariantViolation);
}

TEST(FastRoute, RejectsSmallQueueCapacity) {
  FastRouteAlgorithm algo;
  const Mesh mesh = Mesh::square(27);
  Engine::Config config;
  config.queue_capacity = 10;  // below the Lemma 28 bound
  Engine e(mesh, config, algo);
  e.add_packet(0, 5);
  EXPECT_THROW(e.prepare(), InvariantViolation);
}

}  // namespace
}  // namespace mr

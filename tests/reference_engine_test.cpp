// Direct tests of the naive ReferenceEngine (check/reference_engine.hpp)
// and the fuzz-case plumbing: the reference must behave like the §3
// pipeline on its own, match the optimized Engine bit-for-bit in
// lock-step, and reject the same malformed configurations. The seeded
// fuzzer covers the same ground at scale; these tests pin the small,
// deliberate cases with readable failures.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "check/fuzz.hpp"
#include "check/oracles.hpp"
#include "check/reference_engine.hpp"
#include "core/assert.hpp"
#include "routing/registry.hpp"
#include "sim/engine.hpp"
#include "topo/mesh.hpp"
#include "workload/patterns.hpp"

namespace mr {
namespace {

/// Runs both engines on the same (mesh, k, workload) in lock-step and
/// asserts fingerprints, digest hashes and counters agree at every step.
/// `shards`/`threads` configure the optimized engine's row bands.
void expect_lockstep(const Mesh& mesh, const std::string& algorithm, int k,
                     const Workload& demands, int shards = 1, int threads = 1,
                     Step budget = 2048) {
  auto algo_ref = make_algorithm(algorithm);

  Engine::Config config;
  config.queue_capacity = k;
  config.stall_limit = 64;
  config.shards = shards;
  config.threads = threads;
  Engine opt(mesh, config, [&] { return make_algorithm(algorithm); });
  ASSERT_EQ(opt.shard_count(), shards);
  ASSERT_EQ(opt.thread_count(), threads);
  ReferenceEngine ref(mesh, k, config.stall_limit, *algo_ref);

  DigestHasher hash_opt, hash_ref;
  opt.add_observer(&hash_opt);
  ref.add_observer(&hash_ref);

  for (const Demand& d : demands) {
    opt.add_packet(d.source, d.dest, d.injected_at);
    ref.add_packet(d.source, d.dest, d.injected_at);
  }
  opt.prepare();
  ref.prepare();
  ASSERT_EQ(opt.fingerprint(), ref.fingerprint()) << "prepare() diverged";

  for (Step t = 0; t < budget; ++t) {
    const bool more_opt = opt.step_once();
    const bool more_ref = ref.step_once();
    ASSERT_EQ(more_opt, more_ref) << "drain decision diverged at step " << t;
    ASSERT_EQ(opt.fingerprint(), ref.fingerprint())
        << "fingerprint diverged at step " << opt.step();
    ASSERT_EQ(hash_opt.hash(), hash_ref.hash())
        << "digest stream diverged at step " << opt.step();
    ASSERT_EQ(opt.stalled(), ref.stalled());
    if (!more_opt) break;
  }
  EXPECT_EQ(opt.delivered_count(), ref.delivered_count());
  EXPECT_EQ(opt.total_moves(), ref.total_moves());
  EXPECT_EQ(opt.max_occupancy_seen(), ref.max_occupancy_seen());
  EXPECT_EQ(opt.exchange_count(), ref.exchange_count());
}

TEST(ReferenceEngine, DeliversSimpleWorkload) {
  const Mesh mesh = Mesh::square(4);
  auto algo = make_algorithm("dimension-order");
  ReferenceEngine ref(mesh, 2, /*stall_limit=*/64, *algo);
  ref.add_packet(0, 15);
  ref.add_packet(15, 0);
  ref.prepare();
  ref.run(100);
  EXPECT_TRUE(ref.all_delivered());
  EXPECT_FALSE(ref.stalled());
  // Corner to corner is 6 hops; the delivering hop leaves the network and
  // is not a queue-to-queue move, so total_moves counts 5 per packet.
  EXPECT_EQ(ref.total_moves(), 10);
}

TEST(ReferenceEngine, SourceEqualsDestDeliversAtInjection) {
  const Mesh mesh = Mesh::square(4);
  auto algo = make_algorithm("dimension-order");
  ReferenceEngine ref(mesh, 1, 64, *algo);
  ref.add_packet(5, 5);
  ref.prepare();
  EXPECT_EQ(ref.delivered_count(), 1u);
  EXPECT_EQ(ref.total_moves(), 0);
}

TEST(ReferenceEngine, MatchesEngineOnTranspose) {
  const Mesh mesh = Mesh::square(6);
  expect_lockstep(mesh, "adaptive-alternate", 2, transpose(mesh));
}

TEST(ReferenceEngine, MatchesEngineOnPerInlinkLayout) {
  const Mesh mesh = Mesh::square(5);
  expect_lockstep(mesh, "bounded-dimension-order", 1, transpose(mesh));
}

TEST(ReferenceEngine, MatchesEngineOnTorus) {
  const Mesh mesh = Mesh::square(6, /*torus=*/true);
  expect_lockstep(mesh, "dimension-order", 2, transpose(mesh));
}

TEST(ReferenceEngine, MatchesEngineOnStaggeredInjections) {
  const Mesh mesh = Mesh::square(5);
  Workload demands = transpose(mesh);
  for (std::size_t i = 0; i < demands.size(); ++i)
    demands[i].injected_at = static_cast<Step>(i % 7);
  expect_lockstep(mesh, "greedy-match", 1, demands);
}

TEST(ReferenceEngine, MatchesShardedEngineOnTorus) {
  // Four bands on two threads: wrap links cross between the extreme bands
  // and staggered injections exercise the per-band waiting lists.
  const Mesh mesh = Mesh::square(8, /*torus=*/true);
  Workload demands = transpose(mesh);
  for (std::size_t i = 0; i < demands.size(); ++i)
    demands[i].injected_at = static_cast<Step>(i % 7);
  expect_lockstep(mesh, "dimension-order", 2, demands, /*shards=*/4,
                  /*threads=*/2);
}

TEST(ReferenceEngine, MatchesEngineOnNonMinimalRouter) {
  const Mesh mesh = Mesh::square(5);
  expect_lockstep(mesh, "stray-2", 2, transpose(mesh));
}

// --- constructor validation (negative paths) -----------------------------

TEST(ReferenceEngine, RejectsNonPositiveQueueCapacity) {
  const Mesh mesh = Mesh::square(4);
  auto algo = make_algorithm("dimension-order");
  EXPECT_THROW(ReferenceEngine(mesh, 0, 64, *algo), InvariantViolation);
  EXPECT_THROW(ReferenceEngine(mesh, -3, 64, *algo), InvariantViolation);
}

TEST(ReferenceEngine, RejectsNegativeStallLimit) {
  const Mesh mesh = Mesh::square(4);
  auto algo = make_algorithm("dimension-order");
  EXPECT_THROW(ReferenceEngine(mesh, 1, -1, *algo), InvariantViolation);
}

// --- fuzz-case spec round trip -------------------------------------------

TEST(FuzzCase, SpecRoundTrips) {
  FuzzCase c;
  c.algorithm = "bounded-dimension-order";
  c.n = 7;
  c.topo = "torus";
  c.k = 4;
  c.budget = 512;
  c.ckpt = 9;
  c.demands = {{3, 41, 0}, {9, 2, 5}};
  const std::string spec = format_fuzz_case(c);

  FuzzCase parsed;
  std::string error;
  ASSERT_TRUE(parse_fuzz_case(spec, &parsed, &error)) << error;
  EXPECT_EQ(parsed.algorithm, c.algorithm);
  EXPECT_EQ(parsed.n, c.n);
  EXPECT_EQ(parsed.topo, c.topo);
  EXPECT_EQ(parsed.k, c.k);
  EXPECT_EQ(parsed.budget, c.budget);
  EXPECT_EQ(parsed.ckpt, c.ckpt);
  ASSERT_EQ(parsed.demands.size(), c.demands.size());
  for (std::size_t i = 0; i < c.demands.size(); ++i) {
    EXPECT_EQ(parsed.demands[i].source, c.demands[i].source);
    EXPECT_EQ(parsed.demands[i].dest, c.demands[i].dest);
    EXPECT_EQ(parsed.demands[i].injected_at, c.demands[i].injected_at);
  }
}

TEST(FuzzCase, TopoKeyRoundTrips) {
  FuzzCase c;
  c.algorithm = "bounded-dimension-order";
  c.n = 4;
  c.topo = "cmesh-2";
  c.k = 2;
  c.budget = 256;
  c.demands = {{0, 15, 0}};
  const std::string spec = format_fuzz_case(c);
  EXPECT_NE(spec.find("topo=cmesh-2"), std::string::npos);

  FuzzCase parsed;
  std::string error;
  ASSERT_TRUE(parse_fuzz_case(spec, &parsed, &error)) << error;
  EXPECT_EQ(parsed.topo, "cmesh-2");
  // The legacy spellings still parse: torus=0 leaves topo empty (mesh),
  // torus=1 normalises to topo=torus.
  ASSERT_TRUE(parse_fuzz_case(
      "algo=dimension-order n=4 torus=0 k=1 budget=64 demands=0-15", &parsed,
      &error))
      << error;
  EXPECT_TRUE(parsed.topo.empty());
  ASSERT_TRUE(parse_fuzz_case(
      "algo=dimension-order n=4 torus=1 k=1 budget=64 demands=0-15", &parsed,
      &error))
      << error;
  EXPECT_EQ(parsed.topo, "torus");
}

TEST(FuzzCase, RunFuzzCaseOnRegistryTopologies) {
  for (const char* topo : {"mesh", "torus", "cmesh-2", "cmesh-4"}) {
    FuzzCase c;
    c.algorithm = "bounded-dimension-order";
    c.n = 4;
    c.topo = topo;
    c.k = 2;
    c.budget = 256;
    c.demands = {{0, 15, 0}, {15, 0, 0}, {3, 12, 1}};
    EXPECT_EQ(run_fuzz_case(c), "") << topo;
  }
}

TEST(FuzzCase, ParseRejectsMalformedSpecs) {
  FuzzCase out;
  std::string error;
  EXPECT_FALSE(parse_fuzz_case("", &out, &error));
  EXPECT_FALSE(parse_fuzz_case("algo=dimension-order", &out, &error));
  // Algorithm names resolve at run time, not parse time; structural and
  // range errors are rejected here.
  EXPECT_FALSE(parse_fuzz_case(
      "algo=dimension-order n=4 torus=0 k=0 budget=64 demands=0-1", &out,
      &error));
  EXPECT_FALSE(parse_fuzz_case(
      "algo=dimension-order n=4 torus=0 k=1 budget=64 demands=0-99", &out,
      &error));
  EXPECT_FALSE(parse_fuzz_case(
      "algo=dimension-order n=4 torus=0 topo=hypercube k=1 budget=64 "
      "demands=0-1",
      &out, &error));
  EXPECT_FALSE(error.empty());
}

TEST(FuzzCase, RunFuzzCasePassesOnRegisteredAlgorithms) {
  for (const AlgorithmInfo& info : algorithm_catalog()) {
    FuzzCase c;
    c.algorithm = info.name;
    c.n = 4;
    c.k = 2;
    c.budget = 256;
    c.demands = {{0, 15, 0}, {15, 0, 0}, {3, 12, 1}};
    EXPECT_EQ(run_fuzz_case(c), "") << info.name;
  }
}

TEST(FuzzCase, ShrinkIsNoOpOnPassingCase) {
  FuzzCase c;
  c.algorithm = "dimension-order";
  c.n = 4;
  c.k = 1;
  c.budget = 256;
  c.demands = {{0, 15, 0}, {15, 0, 0}};
  const FuzzCase shrunk = shrink_fuzz_case(c);
  EXPECT_EQ(shrunk.demands.size(), c.demands.size());
}

}  // namespace
}  // namespace mr

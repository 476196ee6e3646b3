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
#include "workload/permutation.hpp"

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

// --- frozen-network jump (Engine::skip_frozen) ----------------------------

/// A 4×4 random permutation at k = 1 that deadlocks under `algorithm`.
struct DeadlockCase {
  std::string algorithm;
  bool torus = false;
  std::uint64_t seed = 1;
};

const DeadlockCase kDeadlocks[] = {
    {"dimension-order", false, 1},     {"adaptive-alternate", false, 1},
    {"greedy-match", false, 1},        {"west-first", false, 1},
    {"stray-2", false, 5},             {"farthest-first", false, 1},
    {"bounded-dimension-order", true, 11}, {"emps", true, 11},
};

constexpr Step kDeadlockStallLimit = 700;

/// Runs the case through Engine::run (profiled, so the jumped steps show)
/// and ReferenceEngine::run, which executes every step, and asserts the
/// two end in the same configuration. Returns the engine's profile.
PhaseProfile expect_run_matches_reference(
    const DeadlockCase& c, Step max_steps,
    Step stall_limit = kDeadlockStallLimit, StepObserver* observer = nullptr,
    Algorithm* algorithm = nullptr) {
  const Mesh mesh = Mesh::square(4, c.torus);
  const Workload w = random_permutation(mesh, c.seed);
  Engine::Config config;
  config.queue_capacity = 1;
  config.stall_limit = stall_limit;
  auto algo_opt = make_algorithm(c.algorithm);
  auto algo_ref = make_algorithm(c.algorithm);
  Engine opt(mesh, config, algorithm != nullptr ? *algorithm : *algo_opt);
  ReferenceEngine ref(mesh, 1, stall_limit, *algo_ref);
  for (const Demand& d : w) {
    opt.add_packet(d.source, d.dest, d.injected_at);
    ref.add_packet(d.source, d.dest, d.injected_at);
  }
  if (observer != nullptr) opt.add_observer(observer);
  opt.set_phase_profiling(true);
  opt.prepare();
  ref.prepare();
  EXPECT_EQ(opt.run(max_steps), ref.run(max_steps)) << c.algorithm;
  EXPECT_EQ(opt.step(), ref.step()) << c.algorithm;
  EXPECT_EQ(opt.stalled(), ref.stalled()) << c.algorithm;
  EXPECT_EQ(opt.delivered_count(), ref.delivered_count()) << c.algorithm;
  EXPECT_EQ(opt.total_moves(), ref.total_moves()) << c.algorithm;
  EXPECT_EQ(opt.max_occupancy_seen(), ref.max_occupancy_seen())
      << c.algorithm;
  EXPECT_EQ(opt.fingerprint(), ref.fingerprint()) << c.algorithm;
  const PhaseProfile profile = opt.phase_profile();
  EXPECT_EQ(profile.steps + profile.skipped_steps, opt.step()) << c.algorithm;
  return profile;
}

TEST(FrozenJump, RunMatchesReferenceOnEveryStationaryRouter) {
  for (const DeadlockCase& c : kDeadlocks) {
    ASSERT_TRUE(make_algorithm(c.algorithm)->stationary()) << c.algorithm;
    const PhaseProfile profile = expect_run_matches_reference(c, 4096);
    // The stall trips at kDeadlockStallLimit idle steps, long before the
    // budget, and most of them were jumped.
    EXPECT_GT(profile.skipped_steps, 0) << c.algorithm;
    EXPECT_LT(profile.steps, kDeadlockStallLimit) << c.algorithm;
  }
}

TEST(FrozenJump, RunStopsAtMaxStepsInsideAPeriod) {
  // No stall limit: the budget alone ends the run. The rotating inqueue
  // pointer gives dimension-order a period of 4, and 1003 steps leave a
  // part period after the last jump, which run() must execute.
  const DeadlockCase c{"dimension-order", false, 1};
  const PhaseProfile profile =
      expect_run_matches_reference(c, 1003, /*stall_limit=*/0);
  EXPECT_GT(profile.skipped_steps, 0);
  EXPECT_EQ(profile.skipped_steps % 4, 0);
}

TEST(FrozenJump, AttachedObserverSeesEveryStep) {
  struct Counter : StepObserver {
    Step steps = 0;
    void on_step(const Sim&, const StepDigest&) override { ++steps; }
  } counter;
  const PhaseProfile profile =
      expect_run_matches_reference(kDeadlocks[0], 4096,
                                   kDeadlockStallLimit, &counter);
  EXPECT_EQ(counter.steps, profile.steps);
  EXPECT_EQ(profile.skipped_steps, 0);
}

TEST(FrozenJump, NonStationaryAlgorithmExecutesEveryStep) {
  // Forwards to dimension-order but keeps the default stationary() =
  // false: the same run, with no jump.
  class Opaque final : public Algorithm {
   public:
    std::string name() const override { return inner_->name(); }
    void init(Sim& e) override { inner_->init(e); }
    void plan_out(Sim& e, NodeId u, OutPlan& plan) override {
      inner_->plan_out(e, u, plan);
    }
    void plan_in(Sim& e, NodeId v, std::span<const Offer> offers,
                 InPlan& plan) override {
      inner_->plan_in(e, v, offers, plan);
    }
    void update_state(Sim& e, NodeId v) override { inner_->update_state(e, v); }

   private:
    std::unique_ptr<Algorithm> inner_ = make_algorithm("dimension-order");
  } opaque;
  ASSERT_FALSE(opaque.stationary());
  const PhaseProfile profile = expect_run_matches_reference(
      kDeadlocks[0], 4096, kDeadlockStallLimit, nullptr, &opaque);
  EXPECT_EQ(profile.skipped_steps, 0);
}

TEST(FrozenJump, PendingInjectionIsNeverJumped) {
  // An empty network awaiting a future-dated injection repeats with
  // period 1, but the injection at step 50 must still happen.
  const Mesh m = Mesh::square(4);
  auto algo = make_algorithm("dimension-order");
  Engine::Config config;
  config.queue_capacity = 1;
  config.stall_limit = 10;
  Engine e(m, config, *algo);
  e.add_packet(m.id_of(0, 0), m.id_of(3, 0), /*injected_at=*/50);
  e.set_phase_profiling(true);
  e.prepare();
  e.run(1000);
  EXPECT_TRUE(e.all_delivered());
  EXPECT_EQ(e.packet(0).delivered_at, 52);
  EXPECT_EQ(e.phase_profile().steps, e.step());
  EXPECT_EQ(e.phase_profile().skipped_steps, 0);
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

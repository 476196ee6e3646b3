// Snapshot/restore property tests: a run snapshotted at step t, serialized
// through the meshroute-snapshot/1 wire format and restored must continue
// bit-identically to the uninterrupted run — same fingerprint stream, same
// StepDigest stream, same final counters — for every registry algorithm on
// every topology family and on the sharded engine. Plus negative coverage:
// corrupt wire bytes and mismatched headers fail with the typed
// SnapshotError kinds, never silently.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "check/oracles.hpp"
#include "harness/checkpoint.hpp"
#include "harness/runner.hpp"
#include "routing/registry.hpp"
#include "sim/engine.hpp"
#include "sim/snapshot.hpp"
#include "topo/mesh.hpp"
#include "topo/registry.hpp"
#include "workload/permutation.hpp"

namespace mr {
namespace {

constexpr std::int32_t kN = 6;
constexpr Step kSnapshotStep = 3;
constexpr Step kBudget = 4096;

struct Outcome {
  std::uint64_t fingerprint = 0;
  std::uint64_t tail_digest = 0;  ///< DigestHasher over steps > kSnapshotStep
  Step steps = 0;
  std::size_t delivered = 0;
  std::int64_t total_moves = 0;
  std::uint64_t exchanges = 0;
  int max_occupancy = 0;
};

/// The workload every case routes: a permutation with staggered
/// injections, so future-dated injections are still pending at the
/// snapshot step and the waiting-list machinery is exercised.
Workload staggered_workload(const Topology& topo) {
  Workload w = random_permutation(topo, 42);
  for (std::size_t i = 0; i < w.size(); ++i)
    w[i].injected_at = static_cast<Step>(i % 8);
  return w;
}

Engine::Config engine_config(int shards) {
  Engine::Config config;
  config.queue_capacity = 2;
  config.stall_limit = 64;
  config.shards = shards;
  config.threads = shards > 1 ? 2 : 1;
  return config;
}

void run_tail(Engine& engine, Outcome* out) {
  DigestHasher tail;
  engine.add_observer(&tail);
  for (Step t = 0; t < kBudget; ++t)
    if (!engine.step_once()) break;
  out->fingerprint = engine.fingerprint(true);
  out->tail_digest = tail.hash();
  out->steps = engine.step();
  out->delivered = engine.delivered_count();
  out->total_moves = engine.total_moves();
  out->exchanges = engine.exchange_count();
  out->max_occupancy = engine.max_occupancy_seen();
}

/// Uninterrupted run, observing only the post-kSnapshotStep tail.
Outcome run_straight(const std::string& topo_name, const std::string& algo,
                     int shards) {
  const std::unique_ptr<Topology> topo = make_topology(topo_name, kN, kN);
  Engine engine(*topo, engine_config(shards),
                [&] { return make_algorithm(algo); });
  for (const Demand& d : staggered_workload(*topo))
    engine.add_packet(d.source, d.dest, d.injected_at);
  engine.prepare();
  while (engine.step() < kSnapshotStep && engine.step_once()) {
  }
  Outcome out;
  run_tail(engine, &out);
  return out;
}

/// Same run, but snapshotted at kSnapshotStep, round-tripped through the
/// wire format, and restored into a FRESH engine that never saw a packet.
Outcome run_restored(const std::string& topo_name, const std::string& algo,
                     int shards) {
  const std::unique_ptr<Topology> topo = make_topology(topo_name, kN, kN);
  EngineSnapshot snap;
  {
    Engine engine(*topo, engine_config(shards),
                  [&] { return make_algorithm(algo); });
    for (const Demand& d : staggered_workload(*topo))
      engine.add_packet(d.source, d.dest, d.injected_at);
    engine.prepare();
    while (engine.step() < kSnapshotStep && engine.step_once()) {
    }
    snap = parse_snapshot(serialize_snapshot(engine.snapshot()));
  }
  Engine fresh(*topo, engine_config(shards),
               [&] { return make_algorithm(algo); });
  fresh.restore(snap);
  Outcome out;
  run_tail(fresh, &out);
  return out;
}

TEST(Snapshot, RestoredRunsAreBitIdentical) {
  const std::vector<std::string> topologies = {"mesh", "torus", "cmesh-4"};
  for (const std::string& algo : algorithm_names()) {
    for (const std::string& topo : topologies) {
      if (topo == "torus" && !supports_torus(algo)) continue;
      for (const int shards : {1, 4}) {
        SCOPED_TRACE(algo + " on " + topo + " shards=" +
                     std::to_string(shards));
        const Outcome straight = run_straight(topo, algo, shards);
        const Outcome restored = run_restored(topo, algo, shards);
        EXPECT_EQ(restored.fingerprint, straight.fingerprint);
        EXPECT_EQ(restored.tail_digest, straight.tail_digest);
        EXPECT_EQ(restored.steps, straight.steps);
        EXPECT_EQ(restored.delivered, straight.delivered);
        EXPECT_EQ(restored.total_moves, straight.total_moves);
        EXPECT_EQ(restored.exchanges, straight.exchanges);
        EXPECT_EQ(restored.max_occupancy, straight.max_occupancy);
      }
    }
  }
}

// --- wire-format negative paths ------------------------------------------

EngineSnapshot sample_snapshot(const std::string& algo, int shards) {
  const std::unique_ptr<Topology> topo = make_topology("mesh", kN, kN);
  Engine engine(*topo, engine_config(shards),
                [&] { return make_algorithm(algo); });
  for (const Demand& d : staggered_workload(*topo))
    engine.add_packet(d.source, d.dest, d.injected_at);
  engine.prepare();
  while (engine.step() < kSnapshotStep && engine.step_once()) {
  }
  return engine.snapshot();
}

void expect_kind(const std::string& wire, SnapshotError::Kind kind) {
  try {
    (void)parse_snapshot(wire);
    FAIL() << "parse_snapshot accepted corrupt input";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), kind) << e.what();
  }
}

TEST(Snapshot, RejectsBadMagic) {
  std::string wire = serialize_snapshot(sample_snapshot("dimension-order", 1));
  wire[0] = 'X';
  expect_kind(wire, SnapshotError::Kind::Format);
}

TEST(Snapshot, RejectsCorruptPayload) {
  std::string wire = serialize_snapshot(sample_snapshot("dimension-order", 1));
  // Flip one payload byte: the checksum must catch it.
  wire.back() = static_cast<char>(wire.back() ^ 0x5A);
  expect_kind(wire, SnapshotError::Kind::Format);
}

TEST(Snapshot, RejectsTruncatedPayload) {
  std::string wire = serialize_snapshot(sample_snapshot("dimension-order", 1));
  wire.resize(wire.size() - 7);
  expect_kind(wire, SnapshotError::Kind::Format);
}

/// `wire` with the value of header field `key` replaced by `value`.
std::string with_header_field(std::string wire, const std::string& key,
                              const std::string& value) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = wire.find(tag);
  EXPECT_NE(at, std::string::npos) << key;
  const std::size_t begin = at + tag.size();
  const std::size_t end = wire.find_first_of(",}", begin);
  return wire.replace(begin, end - begin, value);
}

TEST(Snapshot, RejectsNonIntegerHeaderFields) {
  const std::string wire =
      serialize_snapshot(sample_snapshot("dimension-order", 1));
  // 1e30 used to be cast to int64 (undefined behaviour) and 2.5 truncated.
  for (const char* key :
       {"width", "height", "k", "shards", "step", "packets", "nodes",
        "injections", "waiting", "payload_bytes"}) {
    for (const char* value : {"1e30", "2.5", "-1e30", "\"6\""}) {
      SCOPED_TRACE(std::string(key) + "=" + value);
      expect_kind(with_header_field(wire, key, value),
                  SnapshotError::Kind::Format);
    }
  }
  // The engine's size fields are int32: 2^32 + 6 must not wrap to 6.
  for (const char* key : {"width", "height", "k", "shards"}) {
    SCOPED_TRACE(key);
    expect_kind(with_header_field(wire, key, "4294967302"),
                SnapshotError::Kind::Format);
  }
  // A well-formed replacement still parses.
  EXPECT_NO_THROW((void)parse_snapshot(with_header_field(wire, "k", "4")));
}

TEST(Snapshot, RestoreRejectsMismatchedEngine) {
  const EngineSnapshot snap = sample_snapshot("dimension-order", 1);
  const std::unique_ptr<Topology> topo = make_topology("mesh", kN, kN);

  {
    // Different algorithm.
    Engine other(*topo, engine_config(1),
                 [] { return make_algorithm("greedy-match"); });
    try {
      other.restore(snap);
      FAIL() << "restore accepted a foreign algorithm";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), SnapshotError::Kind::Mismatch) << e.what();
    }
  }
  {
    // Different shard count.
    Engine other(*topo, engine_config(4),
                 [] { return make_algorithm("dimension-order"); });
    try {
      other.restore(snap);
      FAIL() << "restore accepted a foreign shard count";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), SnapshotError::Kind::Mismatch) << e.what();
    }
  }
  {
    // Different topology family.
    const std::unique_ptr<Topology> torus = make_topology("torus", kN, kN);
    Engine other(*torus, engine_config(1),
                 [] { return make_algorithm("dimension-order"); });
    try {
      other.restore(snap);
      FAIL() << "restore accepted a foreign topology";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), SnapshotError::Kind::Mismatch) << e.what();
    }
  }
}

TEST(Snapshot, CheckpointCadenceSurvivesTheFrozenJump) {
  // A deadlocking run checkpointed every 7 steps, which is not a multiple
  // of dimension-order's period of 4. The plain run jumps whole periods of
  // the frozen network; a no-op observer forces every step to execute, so
  // the observed run is the unjumped baseline. Both must leave their last
  // snapshot at the same step with the same bytes, and resuming from it
  // must reproduce the result.
  struct NoOp : StepObserver {
    void on_step(const Sim&, const StepDigest&) override {}
  } noop;
  const Mesh mesh = Mesh::square(4);
  const Workload workload = random_permutation(mesh, 1);
  const std::string dir = ::testing::TempDir() + "frozen_jump_ckpt";
  std::filesystem::remove_all(dir);
  RunSpec spec;
  spec.width = spec.height = 4;
  spec.queue_capacity = 1;
  spec.algorithm = "dimension-order";
  // Chosen so that the last checkpoint step lies inside a span that a
  // jump ignoring the checkpoint cadence would pass over.
  spec.stall_limit = 301;
  spec.telemetry.profile = true;  // shows the jump; attaches no observer
  spec.checkpoint.dir = dir;
  spec.checkpoint.every = 7;
  const auto run = [&](const std::string& key, const RunHooks& hooks,
                       PhaseProfile* profile) {
    RunSpec s = spec;
    s.checkpoint.key = key;
    RunResult r = run_workload(s, workload, hooks);
    *profile = r.phase_profile.value_or(PhaseProfile{});
    r.phase_profile.reset();  // wall-clock timings differ between runs
    return r;
  };
  const auto snapshot_bytes = [&](const std::string& key) {
    CheckpointSpec c = spec.checkpoint;
    c.key = key;
    std::string bytes;
    EXPECT_TRUE(read_text_file(c.snapshot_path(), &bytes)) << key;
    return bytes;
  };

  PhaseProfile jumped_profile, stepped_profile, resumed_profile;
  const RunResult jumped = run("jumped", {}, &jumped_profile);
  RunHooks observed;
  observed.step_observers.push_back(&noop);
  const RunResult stepped = run("stepped", observed, &stepped_profile);
  ASSERT_TRUE(jumped.stalled);
  EXPECT_GT(jumped_profile.skipped_steps, 0);
  EXPECT_EQ(stepped_profile.skipped_steps, 0);
  EXPECT_EQ(run_result_to_json(jumped), run_result_to_json(stepped));

  const std::string bytes = snapshot_bytes("jumped");
  EXPECT_EQ(bytes, snapshot_bytes("stepped"));
  const EngineSnapshot last = parse_snapshot(bytes);
  EXPECT_EQ(last.meta.step, jumped.steps / 7 * 7);

  // Crash simulation: the done record is gone, the last snapshot remains.
  CheckpointSpec jumped_store = spec.checkpoint;
  jumped_store.key = "jumped";
  std::filesystem::remove(jumped_store.done_path());
  const RunResult resumed = run("jumped", {}, &resumed_profile);
  EXPECT_EQ(run_result_to_json(resumed), run_result_to_json(jumped));
  std::filesystem::remove_all(dir);
}

TEST(Snapshot, FileRoundTripAndIoError) {
  const EngineSnapshot snap = sample_snapshot("bounded-dimension-order", 1);
  const std::string path = ::testing::TempDir() + "snapshot_test.ckpt";
  write_snapshot_file(path, snap);
  const EngineSnapshot back = read_snapshot_file(path);
  EXPECT_EQ(serialize_snapshot(back), serialize_snapshot(snap));
  try {
    (void)read_snapshot_file(path + ".does-not-exist");
    FAIL() << "read_snapshot_file accepted a missing file";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), SnapshotError::Kind::Io) << e.what();
  }
}

}  // namespace
}  // namespace mr

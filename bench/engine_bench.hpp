// E13's engine micro-benchmark core: the router sweep behind both the E13
// scenario table and the BENCH_engine.json record that
// `meshroute_bench --engine-record=PATH` writes, plus the record's
// validator and the throughput guard that re-runs a record.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mr::engine_bench {

inline constexpr const char* kSchema = "meshroute-bench-engine/1";
inline constexpr int kQueueCapacity = 2;
/// The throughput guard fails a row whose moves/s falls below
/// (1 - kGuardTolerance) x the baseline row's.
inline constexpr double kGuardTolerance = 0.25;

struct RunStats {
  std::string router;
  std::string layout;
  std::int32_t n = 0;
  std::int64_t steps = 0;
  std::int64_t moves = 0;
  double seconds = 0;
  double moves_per_sec = 0;
  std::size_t delivered = 0;
  std::size_t packets = 0;
  bool stalled = false;
  /// Engine mode for this row (DESIGN.md §9). shards/threads = 1 is the
  /// sequential engine; max_steps > 0 means the run was step-budgeted
  /// rather than drained (the n >= 1024 scaled rows).
  int shards = 1;
  int threads = 1;
  std::int64_t max_steps = 0;
};

/// One timed engine run of `name` on an n×n mesh, with an explicit engine
/// mode and step budget (0 = the default drain budget). Central-queue
/// routers get monotone (deadlock-free) traffic so the benchmark measures
/// engine throughput, not deadlock spinning; the per-inlink router takes
/// the full permutation. Sharded runs produce bit-identical routing
/// results; only the wall clock changes.
RunStats run_once(const std::string& name, std::int32_t n, int shards = 1,
                  int threads = 1, std::int64_t max_steps = 0);

/// Runs per row of router_sweep(): 1 when `smoke`, else 3.
int sweep_reps(bool smoke);

/// The sequential router sweep: every registry router × n ∈ {8} when
/// `smoke`, else {32, 64, 120}; each row is the best of sweep_reps(smoke)
/// runs by moves/s.
std::vector<RunStats> router_sweep(bool smoke);

/// Writes the BENCH_engine.json record (schema kSchema).
bool write_json(const std::string& path, const std::vector<RunStats>& all,
                bool smoke);

/// Validates the BENCH_engine.json schema; prints the first problem found.
/// "n", "shards", "threads" and "max_steps" must be whole numbers in int32
/// range (n, shards, threads >= 1; max_steps >= 0); the engine-mode keys
/// may be absent (older records lack them).
bool validate_json(const std::string& path);

/// The record sweep: router_sweep(smoke), printed per row, plus (unless
/// `smoke`) the scaled sharded rows. Writes and validates `path`. Returns
/// a process exit code.
int json_sweep(const std::string& path, bool smoke);

/// Throughput regression guard: validates the baseline BENCH_engine.json
/// at `baseline_path` (written on the same machine), then re-runs every
/// row in its engine mode and fails if any falls below
/// (1 - kGuardTolerance) x the baseline moves_per_sec. Returns a process
/// exit code.
int throughput_guard(const std::string& baseline_path);

}  // namespace mr::engine_bench

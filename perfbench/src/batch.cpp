// W1 batch-n120: the E13 closed batch (k = 2, sequential engine) drained
// once by every registered router, then once more by
// bounded-dimension-order on the sharded engine (shards = threads = 4).
#include <algorithm>
#include <cstdio>
#include <exception>

#include "core/worker_pool.hpp"
#include "harness/runner.hpp"
#include "perfbench.hpp"
#include "routing/registry.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace perfbench {
namespace {

const std::vector<std::string> kRouters = {
    "dimension-order", "adaptive-alternate", "greedy-match",
    "west-first",      "stray-2",            "farthest-first",
    "bounded-dimension-order", "emps"};
constexpr const char* kShardedRouter = "bounded-dimension-order";
constexpr int kQueueCapacity = 2;
constexpr int kShards = 4;

std::int32_t grid_size(const Options& options) { return options.tiny ? 16 : 120; }

/// One drained run: set-up (workload generation, Engine construction,
/// add_packet, prepare) and the drain, timed separately.
struct Drain {
  std::string router;
  int shards = 1;
  bool ok = false;
  std::string error;
  double setup_s = 0;
  double run_s = 0;
  mr::Step steps = 0;
  std::int64_t moves = 0;
  std::uint64_t digest = 0;
  mr::PhaseProfile profile;
  std::vector<double> latencies;

  std::string label() const {
    return router + (shards > 1 ? " shards=" + std::to_string(shards) : "");
  }
};

Drain drain(const std::string& router, std::int32_t n, std::uint64_t seed,
            int shards, bool profile) {
  Drain d;
  d.router = router;
  d.shards = shards;
  try {
    const Clock::time_point t0 = Clock::now();
    const mr::Mesh mesh = mr::Mesh::square(n);
    // Central-queue routers get the monotone subset (deadlock-free), the
    // per-inlink ones the full permutation, as in E13.
    const bool per_inlink =
        mr::make_algorithm(router)->queue_layout() == mr::QueueLayout::PerInlink;
    mr::Workload workload;
    for (const mr::Demand& dem : mr::random_permutation(mesh, seed)) {
      const mr::Coord s = mesh.coord_of(dem.source);
      const mr::Coord t = mesh.coord_of(dem.dest);
      if (per_inlink || (t.col >= s.col && t.row >= s.row)) workload.push_back(dem);
    }
    mr::Engine::Config config;
    config.queue_capacity = kQueueCapacity;
    config.shards = shards;
    config.threads = shards;
    mr::Engine engine(mesh, config, [&] { return mr::make_algorithm(router); });
    for (const mr::Demand& dem : workload)
      engine.add_packet(dem.source, dem.dest, dem.injected_at);
    engine.prepare();
    engine.set_phase_profiling(profile);
    const Clock::time_point t1 = Clock::now();
    d.steps = engine.run(mr::default_step_budget(n, n, kQueueCapacity));
    const Clock::time_point t2 = Clock::now();
    d.setup_s = seconds_between(t0, t1);
    d.run_s = seconds_between(t1, t2);
    d.moves = engine.total_moves();
    d.digest = delivery_digest(engine.all_packets());
    d.profile = engine.phase_profile();
    append_latencies(engine.all_packets(), &d.latencies);
    d.ok = engine.all_delivered() && !engine.stalled();
    if (!d.ok)
      d.error = engine.stalled() ? "stalled" : "undelivered within budget";
  } catch (const std::exception& e) {
    d.error = e.what();
  }
  return d;
}

/// One pass: every router sequentially, then the sharded row.
std::vector<Drain> pass(const Options& options, bool profile) {
  std::vector<Drain> rows;
  for (const std::string& router : kRouters)
    rows.push_back(drain(router, grid_size(options), options.seed, 1, profile));
  rows.push_back(
      drain(kShardedRouter, grid_size(options), options.seed, kShards, profile));
  return rows;
}

/// Checks a pass against the first one (identical digests, steps, moves)
/// and the sharded row against its sequential twin. Counts one operation
/// per row.
void check_pass(const std::vector<Drain>& rows, const std::vector<Drain>& first,
                Report& report) {
  const Drain* sequential = nullptr;
  for (const Drain& r : rows)
    if (r.router == kShardedRouter && r.shards == 1) sequential = &r;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Drain& r = rows[i];
    std::string what = std::string(kBatch) + " " + r.label();
    bool ok = r.ok;
    if (!ok) what += ": " + r.error;
    if (ok && (r.digest != first[i].digest || r.steps != first[i].steps ||
               r.moves != first[i].moves)) {
      ok = false;
      what += ": digest/steps/moves differ from the first pass";
    }
    if (ok && r.shards > 1 && sequential != nullptr &&
        (r.digest != sequential->digest || r.steps != sequential->steps ||
         r.moves != sequential->moves)) {
      ok = false;
      what += ": sharded result differs from the sequential engine";
    }
    report.operation(ok, what);
  }
}

void print_digests(const std::vector<Drain>& rows) {
  for (const Drain& r : rows)
    std::printf("digest %s %s steps=%lld moves=%lld delivery=%016llx\n", kBatch,
                r.label().c_str(), static_cast<long long>(r.steps),
                static_cast<long long>(r.moves),
                static_cast<unsigned long long>(r.digest));
}

// W1's end-to-end timings cover the router set, the sequential rows. The
// sharded row is checked in every pass and timed for sim.small_sharded.*,
// but its ~1100 pool barriers per drain make its time follow the host's
// thread wake-up latency, which swings far more than compute does.

double run_s(const std::vector<Drain>& rows) {
  double s = 0;
  for (const Drain& r : rows)
    if (r.shards == 1) s += r.run_s;
  return s;
}

/// Per row, the median drain time over `passes`.
std::vector<double> median_run_s(const std::vector<std::vector<Drain>>& passes) {
  std::vector<double> out;
  for (std::size_t r = 0; r < passes.front().size(); ++r) {
    std::vector<double> times;
    for (const std::vector<Drain>& rows : passes) times.push_back(rows[r].run_s);
    out.push_back(median(times));
  }
  return out;
}

std::int64_t pass_moves(const std::vector<Drain>& rows) {
  std::int64_t m = 0;
  for (const Drain& r : rows)
    if (r.shards == 1) m += r.moves;
  return m;
}

double rate(std::int64_t moves, double seconds) {
  return seconds > 0 ? static_cast<double>(moves) / seconds : 0;
}

std::vector<double> pass_rates(const std::vector<std::vector<Drain>>& passes) {
  std::vector<double> out;
  for (const std::vector<Drain>& rows : passes) out.push_back(rate(pass_moves(rows), run_s(rows)));
  return out;
}

}  // namespace

void run_batch(const Options& options, Report& report) {
  EndToEnd e2e;
  std::vector<Drain> first;
  double wall_s = 0;
  const int min_passes = 3;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < min_passes || seconds_since(start) < options.seconds; ++i) {
    const std::vector<Drain> rows = pass(options, /*profile=*/false);
    if (first.empty()) first = rows;
    check_pass(rows, first, report);
    double setup_s = 0, pass_s = 0;
    for (const Drain& r : rows) {
      if (r.shards > 1) continue;
      setup_s += r.setup_s;
      pass_s += r.setup_s + r.run_s;
      e2e.job_ms.push_back(1e3 * (r.setup_s + r.run_s));
      ++e2e.jobs;
    }
    e2e.setup_s.push_back(setup_s);
    e2e.moves_per_s.push_back(rate(pass_moves(rows), run_s(rows)));
    e2e.suite_s.push_back(pass_s);
    wall_s += pass_s;
  }
  print_digests(first);
  e2e.jobs_wall_s = wall_s;
  std::vector<double> latencies;
  for (const Drain& r : first) {
    if (r.shards > 1) continue;
    e2e.sim_steps += r.steps;
    latencies.insert(latencies.end(), r.latencies.begin(), r.latencies.end());
  }
  e2e.sim_latency_p99_steps = quantile(latencies, 0.99);
  e2e.report(report);
}

void trace_batch(const Options& options, Report& report) {
  // Untraced passes (exact routing counts, ns/move, the small-grid sharded
  // row; medians over the passes) interleaved with passes that phase-profile every engine.
  // Profiling must not change routing: every pass repeats the first.
  const int rounds = options.tiny ? 1 : 3;
  std::vector<std::vector<Drain>> passes, traced;
  for (int i = 0; i < rounds; ++i) {
    passes.push_back(pass(options, /*profile=*/false));
    check_pass(passes.back(), passes.front(), report);
    traced.push_back(pass(options, /*profile=*/true));
    check_pass(traced.back(), passes.front(), report);
  }
  print_digests(passes.front());

  const std::vector<double> row_s = median_run_s(passes);
  const std::vector<Drain>& rows = passes.front();
  for (std::size_t i = 0; i < kRouters.size(); ++i) {
    const std::string prefix = "routing." + rows[i].router;
    report.metric(prefix + ".ns_per_move",
                  rows[i].moves > 0 ? 1e9 * row_s[i] / rows[i].moves : 0, "ns");
    report.metric(prefix + ".sim_steps", static_cast<double>(rows[i].steps), "steps");
    report.metric(prefix + ".moves", static_cast<double>(rows[i].moves), "hops");
  }

  // Phase split of the traced passes' sequential runs.
  mr::PhaseProfile total;
  std::int64_t moves = 0;
  for (const std::vector<Drain>& traced_rows : traced) {
    for (const Drain& r : traced_rows) {
      if (r.shards > 1) continue;
      for (int p = 0; p < mr::kNumPhases; ++p) total.seconds[p] += r.profile.seconds[p];
      total.total_seconds += r.profile.total_seconds;
      moves += r.moves;
    }
  }
  const auto per_move = [moves](double s) { return moves > 0 ? 1e9 * s / moves : 0; };
  for (int p = 0; p < mr::kNumPhases; ++p)
    report.metric(std::string("sim.phase.") +
                      mr::phase_name(static_cast<mr::StepPhase>(p)) + "_ns_per_move",
                  per_move(total.seconds[p]), "ns");
  report.metric("sim.phase.other_ns_per_move",
                per_move(total.total_seconds - total.phase_seconds_sum()), "ns");

  const std::size_t sharded = rows.size() - 1;  // pass() appends it last
  const std::size_t sequential = static_cast<std::size_t>(
      std::find(kRouters.begin(), kRouters.end(), kShardedRouter) - kRouters.begin());
  const double small_sharded = rate(rows[sharded].moves, row_s[sharded]);
  const double small_seq = rate(rows[sequential].moves, row_s[sequential]);
  report.metric("sim.small_sharded.moves_per_s", small_sharded, "hops/s");
  report.metric("sim.small_sharded.speedup",
                small_seq > 0 ? small_sharded / small_seq : 0, "ratio");
  report.metric("trace.batch-n120.overhead_moves_per_s",
                median(pass_rates(traced)) - median(pass_rates(passes)),
                "hops/s");

  // Empty WorkerPool::run(4) round trip: the per-barrier cost a sharded
  // step pays five times.
  mr::WorkerPool pool(kShards);
  std::vector<double> us;
  const int calls = options.tiny ? 200 : 5000;
  for (int i = 0; i < calls; ++i) {
    const Clock::time_point t0 = Clock::now();
    pool.run(kShards, [](std::size_t) {});
    us.push_back(1e6 * seconds_since(t0));
  }
  report.metric("core.pool.barrier_us", median(us), "us");
}

}  // namespace perfbench

// W2 sharded-n1024: bounded-dimension-order on a 1024×1024 permutation,
// k = 2, shards = threads = 4, step-budgeted, after one untimed warm-up.
#include <cstdio>
#include <exception>

#include "perfbench.hpp"
#include "routing/registry.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace perfbench {
namespace {

constexpr const char* kRouter = "bounded-dimension-order";
constexpr int kQueueCapacity = 2;
constexpr int kShards = 4;

std::int32_t grid_size(const Options& options) { return options.tiny ? 64 : 1024; }
mr::Step step_budget(const Options& options) { return options.tiny ? 8 : 16; }

/// One budgeted run with its set-up split into generation, construction
/// (Engine + add_packet) and prepare().
struct Rep {
  int shards = 1;
  bool ok = false;
  std::string error;
  double gen_s = 0;
  double build_s = 0;
  double prepare_s = 0;
  double run_s = 0;
  mr::Step steps = 0;
  std::int64_t moves = 0;
  std::uint64_t fingerprint = 0;
  mr::PhaseProfile profile;
  std::vector<double> step_ms;  ///< host time of each step_once
  std::vector<double> latencies;

  double setup_s() const { return gen_s + build_s + prepare_s; }
  double moves_per_s() const { return run_s > 0 ? moves / run_s : 0; }
};

/// `traced` turns on phase profiling.
Rep rep(const Options& options, int shards, bool traced) {
  Rep r;
  r.shards = shards;
  const mr::Step budget = step_budget(options);
  try {
    const Clock::time_point t0 = Clock::now();
    const mr::Mesh mesh = mr::Mesh::square(grid_size(options));
    const mr::Workload workload = mr::random_permutation(mesh, options.seed);
    const Clock::time_point t1 = Clock::now();
    mr::Engine::Config config;
    config.queue_capacity = kQueueCapacity;
    config.shards = shards;
    config.threads = shards;
    mr::Engine engine(mesh, config, [] { return mr::make_algorithm(kRouter); });
    for (const mr::Demand& d : workload)
      engine.add_packet(d.source, d.dest, d.injected_at);
    const Clock::time_point t2 = Clock::now();
    engine.prepare();
    engine.set_phase_profiling(traced);
    const Clock::time_point t3 = Clock::now();
    // Engine::run's loop, with every step timed from outside.
    while (!engine.all_delivered() && !engine.stalled() && engine.step() < budget) {
      const Clock::time_point s0 = Clock::now();
      const bool more = engine.step_once();
      r.step_ms.push_back(1e3 * seconds_since(s0));
      if (!more) break;
    }
    r.steps = engine.step();
    const Clock::time_point t4 = Clock::now();
    r.gen_s = seconds_between(t0, t1);
    r.build_s = seconds_between(t1, t2);
    r.prepare_s = seconds_between(t2, t3);
    r.run_s = seconds_between(t3, t4);
    r.moves = engine.total_moves();
    r.fingerprint = engine.fingerprint();
    r.profile = engine.phase_profile();
    append_latencies(engine.all_packets(), &r.latencies);
    // Budgeted, not drained: undelivered packets are expected, stopping
    // short of the budget is not.
    r.ok = !engine.stalled() && (r.steps == budget || engine.all_delivered());
    if (!r.ok) r.error = engine.stalled() ? "stalled" : "stopped before the step budget";
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

void check(const Rep& r, const Rep& reference, const std::string& what,
           Report& report) {
  std::string msg = std::string(kSharded) + " " + what;
  bool ok = r.ok;
  if (!ok) msg += ": " + r.error;
  if (ok && (r.fingerprint != reference.fingerprint || r.steps != reference.steps ||
             r.moves != reference.moves)) {
    ok = false;
    msg += ": fingerprint/steps/moves differ from the reference run";
  }
  report.operation(ok, msg);
}

void print_fingerprint(const Rep& r) {
  std::printf("fingerprint %s shards=%d steps=%lld moves=%lld fingerprint=%016llx\n",
              kSharded, r.shards, static_cast<long long>(r.steps),
              static_cast<long long>(r.moves),
              static_cast<unsigned long long>(r.fingerprint));
}

}  // namespace

void run_sharded(const Options& options, Report& report) {
  const Rep warmup = rep(options, kShards, false);
  check(warmup, warmup, "warm-up", report);

  EndToEnd e2e;
  const int min_reps = 3;
  // by_step[s]: the time of step s + 1 in every repetition.
  std::vector<std::vector<double>> by_step;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < min_reps || seconds_since(start) < options.seconds; ++i) {
    const Rep r = rep(options, kShards, false);
    check(r, warmup, "rep " + std::to_string(i), report);
    e2e.setup_s.push_back(r.setup_s());
    e2e.moves_per_s.push_back(r.moves_per_s());
    if (by_step.size() < r.step_ms.size()) by_step.resize(r.step_ms.size());
    for (std::size_t s = 0; s < r.step_ms.size(); ++s) by_step[s].push_back(r.step_ms[s]);
    e2e.jobs += static_cast<std::int64_t>(r.step_ms.size());
    e2e.jobs_wall_s += r.run_s;
    e2e.suite_s.push_back(r.setup_s() + r.run_s);
  }
  // The operation timed here is one sharded step. Every repetition runs
  // the same 16 steps, so each step's time is its median over the
  // repetitions, and the percentiles are taken over the 16 steps: a
  // momentary stall of the host moves one sample, not the p90.
  for (const std::vector<double>& times : by_step) e2e.job_ms.push_back(median(times));
  e2e.sim_steps = warmup.steps;
  e2e.sim_latency_p99_steps = quantile(warmup.latencies, 0.99);
  print_fingerprint(warmup);
  e2e.report(report);
}

void trace_sharded(const Options& options, Report& report) {
  const Rep warmup = rep(options, kShards, false);
  check(warmup, warmup, "warm-up", report);
  const Rep sharded = rep(options, kShards, false);
  check(sharded, warmup, "untraced sharded", report);
  // The sequential engine must reach the same network state.
  const Rep sequential = rep(options, 1, false);
  check(sequential, sharded, "sequential vs sharded fingerprint", report);
  const Rep traced = rep(options, kShards, true);
  check(traced, sharded, "traced sharded", report);
  print_fingerprint(sharded);
  print_fingerprint(sequential);

  std::vector<double> gen_ms, prepare_ms;
  for (const Rep* r : {&warmup, &sharded, &sequential, &traced}) {
    gen_ms.push_back(1e3 * r->gen_s);
    prepare_ms.push_back(1e3 * r->prepare_s);
  }
  report.metric("workload.gen_ms", median(gen_ms), "ms");
  report.metric("sim.prepare_ms", median(prepare_ms), "ms");
  report.metric("sim.step_ms_p50", median(traced.step_ms), "ms");
  report.metric("sim.step_ms_max", quantile(traced.step_ms, 1.0), "ms");
  report.metric("sim.sharded.speedup",
                sequential.moves_per_s() > 0
                    ? sharded.moves_per_s() / sequential.moves_per_s() : 0,
                "ratio");
  const double moves = static_cast<double>(traced.moves);
  const auto per_move = [moves](double s) { return moves > 0 ? 1e9 * s / moves : 0; };
  for (int p = 0; p < mr::kNumPhases; ++p)
    report.metric(std::string("sim.sharded.phase.") +
                      mr::phase_name(static_cast<mr::StepPhase>(p)) + "_ns_per_move",
                  per_move(traced.profile.seconds[p]), "ns");
  report.metric("sim.sharded.phase.other_ns_per_move",
                per_move(traced.profile.total_seconds -
                         traced.profile.phase_seconds_sum()),
                "ns");
  report.metric("trace.sharded-n1024.overhead_moves_per_s",
                traced.moves_per_s() - sharded.moves_per_s(), "hops/s");
}

}  // namespace perfbench

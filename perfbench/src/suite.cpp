// W4 suite-smoke: every registered scenario at smoke scale, one worker,
// through the scenario registry, at the scenarios' built-in seeds.
#include <algorithm>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "harness/scenario.hpp"
#include "perfbench.hpp"
#include "scenarios.hpp"

namespace perfbench {
namespace {

// Tiny mode runs only these (the fastest at smoke scale); the others are
// reported with zero time.
const std::vector<std::string> kTinySubset = {"E06", "E13", "E15", "E21"};

struct ScenarioTiming {
  std::string id;
  bool ran = false;
  double seconds = 0;
  std::size_t checks = 0;
  std::size_t checks_failed = 0;
};

struct Sweep {
  std::vector<ScenarioTiming> scenarios;
  double wall_s = 0;  ///< Σ scenario times
  std::int64_t moves = 0;
  std::int64_t steps = 0;
  double worst_p99 = 0;
};

/// Time of one registry build (register_all), the suite's set-up.
double registry_build_s() {
  const Clock::time_point t0 = Clock::now();
  mr::ScenarioRegistry registry;
  mr::scenarios::register_all(registry);
  return seconds_since(t0);
}

/// Runs the sweep. With `setup_s`, times a few registry builds before each
/// scenario, so the set-up samples span the whole sweep.
Sweep sweep(const Options& options, Report& report, std::vector<double>* setup_s) {
  mr::ScenarioOptions scenario_options;
  scenario_options.scale = mr::Scale::Small;
  scenario_options.jobs = 1;
  // Built-in scenario seeds, as `meshroute_bench --smoke` and CI run the
  // suite: E19's checks fail under many --seed overrides (README.md).
  scenario_options.seed = 0;
  Sweep out;
  for (const mr::ScenarioSpec* spec : mr::scenarios::builtin().all()) {
    if (setup_s != nullptr)
      for (int i = 0; i < (options.tiny ? 1 : 5); ++i) setup_s->push_back(registry_build_s());
    ScenarioTiming t;
    t.id = spec->id;
    if (options.tiny &&
        std::find(kTinySubset.begin(), kTinySubset.end(), spec->id) == kTinySubset.end()) {
      out.scenarios.push_back(t);
      continue;
    }
    const Clock::time_point t0 = Clock::now();
    const mr::ScenarioResult result = mr::run_scenario(*spec, scenario_options);
    t.seconds = seconds_since(t0);
    t.ran = true;
    out.wall_s += t.seconds;
    t.checks = result.checks.size();
    std::string failed;
    for (const mr::ScenarioCheck& c : result.checks)
      if (!c.pass) {
        ++t.checks_failed;
        failed += " [check] " + c.name + ": " + c.detail;
      }
    report.operation(result.passed(), std::string(kSuite) + " " + spec->id + ": " +
                                          (result.errored ? result.error : failed));
    for (const mr::ScenarioRunRecord& rec : result.runs) {
      out.moves += rec.run.total_moves;
      out.steps += rec.run.steps;
      out.worst_p99 = std::max(out.worst_p99, static_cast<double>(rec.run.latency.p99));
    }
    out.scenarios.push_back(t);
  }
  return out;
}

}  // namespace

void run_suite(const Options& options, Report& report) {
#if defined(__GLIBC__)
  // One malloc arena. glibc gives threads their own arenas, so the peak
  // RSS of the sweep would depend on which arena each of E13's sharded
  // worker threads happened to get (19.5 to 26.7 MiB over ten identical
  // runs; 14.1 to 15.0 MiB with one arena). The sweep itself is serial.
  mallopt(M_ARENA_MAX, 1);
#endif
  EndToEnd e2e;
  const Sweep s = sweep(options, report, &e2e.setup_s);
  // The operation is the sweep, as `meshroute_bench --smoke --jobs=1`
  // runs it. A run holds one, so its p50 and p90 are the sweep time. The
  // scenarios differ too much in size for percentiles over them to mean
  // anything; the traced run reports each one (harness.scenario.<Exx>_s).
  e2e.job_ms.push_back(1e3 * s.wall_s);
  e2e.jobs = 1;
  e2e.jobs_wall_s = s.wall_s;
  e2e.suite_s.push_back(s.wall_s);
  e2e.moves_per_s.push_back(s.wall_s > 0 ? s.moves / s.wall_s : 0);
  e2e.sim_steps = s.steps;
  e2e.sim_latency_p99_steps = s.worst_p99;
  e2e.report(report);
}

void trace_suite(const Options& options, Report& report) {
  const Sweep s = sweep(options, report, nullptr);
  std::size_t checks = 0, checks_failed = 0;
  for (const ScenarioTiming& t : s.scenarios) {
    report.metric("harness.scenario." + t.id + "_s", t.seconds, "s");
    checks += t.checks;
    checks_failed += t.checks_failed;
  }
  report.metric("suite.checks_total", static_cast<double>(checks), "count");
  report.metric("suite.checks_failed", static_cast<double>(checks_failed), "count");
}

}  // namespace perfbench

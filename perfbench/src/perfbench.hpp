// perfbench — the repository benchmark (see perfbench/README.md).
//
// Four workloads drive the simulator the way its users do: a closed batch
// on a small mesh (batch-n120), a budgeted sharded run on a large mesh
// (sharded-n1024), a closed-loop meshrouted session (daemon-mixed) and the
// smoke-scale scenario suite (suite-smoke). An untraced run measures one
// workload and reports the end-to-end metrics; a traced run (--trace 1)
// measures every layer and reports the per-layer metrics. Both print one
// JSON object as the last line of stdout.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "sim/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t) {
  return seconds_between(t, Clock::now());
}

inline constexpr const char* kBatch = "batch-n120";
inline constexpr const char* kSharded = "sharded-n1024";
inline constexpr const char* kDaemon = "daemon-mixed";
inline constexpr const char* kSuite = "suite-smoke";

struct Options {
  std::string workload;
  std::uint64_t seed = 1;  ///< permutation / traffic / scenario seed
  double seconds = 10;     ///< measuring time of one untraced run
  bool trace = false;
  bool tiny = false;       ///< tiny sizes: every workload in seconds
  std::string work_dir;    ///< scratch directory (daemon socket, telemetry)
};

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set of this process, MiB.
double peak_rss_mib();

/// Order-sensitive digest of every packet's delivery step. A drained
/// network's fingerprint() is the empty-network hash, so this is the
/// identity check for batch runs.
std::uint64_t delivery_digest(const std::vector<mr::Packet>& packets);

/// delivered_at - injected_at of every delivered packet, appended to *out.
void append_latencies(const std::vector<mr::Packet>& packets,
                      std::vector<double>* out);

/// Metrics and operation outcomes of one benchmark invocation.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Counts one attempted operation; a failed one is described on stderr.
  void operation(bool ok, const std::string& what);
  /// Prints {"correct", "attempted", "failed", "metrics"} as one line.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// The end-to-end record every untraced workload fills. Each workload
/// defines its operation ("job") and pass; README.md gives the table.
struct EndToEnd {
  std::vector<double> setup_s;      ///< one sample per set-up
  std::vector<double> moves_per_s;  ///< one sample per pass
  std::int64_t sim_steps = 0;
  std::vector<double> job_ms;       ///< one sample per operation
  std::int64_t jobs = 0;            ///< operations completed ...
  double jobs_wall_s = 0;           ///< ... in this much wall time
  double sim_latency_p99_steps = 0;
  std::vector<double> suite_s;      ///< one sample per pass

  void report(Report& report) const;
};

void run_batch(const Options& options, Report& report);
void run_sharded(const Options& options, Report& report);
void run_daemon(const Options& options, Report& report);
void run_suite(const Options& options, Report& report);

void trace_batch(const Options& options, Report& report);
void trace_sharded(const Options& options, Report& report);
void trace_daemon(const Options& options, Report& report);
void trace_suite(const Options& options, Report& report);

}  // namespace perfbench

// W3 daemon-mixed: an in-process meshrouted Daemon (2 lanes) on a unix
// socket, driven by 3 closed-loop client connections. Each client submits
// and waits, cycling 1 stream job (open-loop uniform traffic) to 3 batch
// jobs (random permutations), all on a 32×32 mesh.
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "core/json_min.hpp"
#include "harness/checkpoint.hpp"
#include "perfbench.hpp"
#include "service/daemon.hpp"
#include "service/job.hpp"
#include "service/protocol.hpp"
#include "topo/registry.hpp"
#include "traffic/source.hpp"
#include "workload/permutation.hpp"

namespace perfbench {
namespace {

constexpr int kClients = 3;
constexpr std::size_t kLanes = 2;
constexpr int kSetups = 50;

enum class Kind { Stream, Batch };
const char* kind_name(Kind k) { return k == Kind::Stream ? "stream" : "batch"; }

/// One job of the cycle with its reference result from a direct
/// execute_job call.
struct CycleJob {
  Kind kind = Kind::Batch;
  std::string json;
  mr::JobSpec spec;
  mr::RunResult reference;
};

std::vector<CycleJob> make_cycle(const Options& options) {
  const int n = options.tiny ? 8 : 32;
  const int traffic_steps = options.tiny ? 64 : 1024;
  const std::string grid = "\"algorithm\": \"bounded-dimension-order\", \"width\": " +
                           std::to_string(n) + ", \"height\": " + std::to_string(n) +
                           ", \"k\": 2";
  std::vector<CycleJob> cycle(4);
  cycle[0].kind = Kind::Stream;
  cycle[0].json = "{" + grid +
                  ", \"traffic\": {\"pattern\": \"uniform\", \"rate\": 0.04, \"seed\": " +
                  std::to_string(options.seed) +
                  ", \"steps\": " + std::to_string(traffic_steps) + "}}";
  for (int i = 1; i < 4; ++i)
    cycle[i].json = "{" + grid + ", \"seed\": " + std::to_string(options.seed + i) + "}";
  for (CycleJob& job : cycle) {
    std::string error;
    const std::optional<mr::json::Value> doc = mr::json::parse(job.json, &error);
    if (!doc || !mr::parse_job_spec(*doc, &job.spec, &error))
      throw std::runtime_error("perfbench: bad job spec " + job.json + ": " + error);
  }
  return cycle;
}

/// Direct execute_job of every cycle job (no daemon): the results the
/// daemon's result frames must reproduce.
void compute_references(std::vector<CycleJob>& cycle, const std::string& dir) {
  for (CycleJob& job : cycle) job.reference = mr::execute_job(job.spec, dir);
}

/// What one client observed for one job.
struct JobSample {
  Kind kind = Kind::Batch;
  bool ok = false;
  std::string error;
  double ack_ms = 0;
  double first_frame_ms = 0;
  double job_ms = 0;
  int frames = 0;           ///< every frame after the ack, result included
  std::size_t bytes = 0;    ///< their payload bytes
  mr::RunResult result;
};

/// The "kind" member of a job frame, read without parsing the whole frame
/// (telemetry frames carry a full JSONL line).
std::string frame_kind(const std::string& payload) {
  static const std::string key = "\"kind\": \"";
  const std::size_t at = payload.find(key);
  if (at == std::string::npos || at > 64) return "";
  const std::size_t begin = at + key.size();
  const std::size_t end = payload.find('"', begin);
  return end == std::string::npos ? "" : payload.substr(begin, end - begin);
}

bool same_result(const mr::RunResult& a, const mr::RunResult& b) {
  return a.steps == b.steps && a.total_moves == b.total_moves &&
         a.delivered == b.delivered && a.latency.p99 == b.latency.p99;
}

/// Submits `job` on `fd` and reads frames until its result or error.
JobSample submit_and_wait(int fd, const CycleJob& job) {
  JobSample s;
  s.kind = job.kind;
  std::string error;
  const Clock::time_point t0 = Clock::now();
  if (!mr::write_frame(fd, "{\"op\": \"submit\", \"job\": " + job.json + "}", &error)) {
    s.error = "submit: " + error;
    return s;
  }
  std::string payload;
  for (;;) {
    if (!mr::read_frame(fd, &payload, &error)) {
      s.error = "read: " + error;
      return s;
    }
    const double ms = 1e3 * seconds_since(t0);
    if (payload.rfind("{\"ok\"", 0) == 0) {
      if (payload.rfind("{\"ok\": true", 0) != 0) {
        s.error = "rejected: " + payload;
        return s;
      }
      s.ack_ms = ms;
      continue;
    }
    if (s.frames == 0) s.first_frame_ms = ms;
    ++s.frames;
    s.bytes += payload.size();
    const std::string kind = frame_kind(payload);
    if (kind == "telemetry") continue;
    s.job_ms = ms;
    if (kind != "result") {
      s.error = "error frame: " + payload;
      return s;
    }
    const std::size_t at = payload.find("\"result\": ");
    std::string body = at == std::string::npos ? "" : payload.substr(at + 10);
    if (!body.empty()) body.pop_back();  // the frame's closing brace
    if (!mr::run_result_from_json(body, &s.result, &error)) {
      s.error = "bad result frame: " + error;
      return s;
    }
    s.ok = same_result(s.result, job.reference) && !s.result.stalled &&
           s.result.all_delivered;
    if (!s.ok) s.error = "result differs from a direct execute_job of the same spec";
    return s;
  }
}

/// Closed loop: submit-and-wait through the cycle (starting at `offset`)
/// until `deadline`. Runs on its own thread, so nothing escapes it.
std::vector<JobSample> client_loop(const std::string& socket_path,
                                   const std::vector<CycleJob>& cycle, int offset,
                                   Clock::time_point deadline) {
  std::vector<JobSample> samples;
  const auto fail = [&samples](const std::string& error) {
    JobSample s;
    s.error = error;
    samples.push_back(s);
  };
  std::string error;
  const int fd = mr::connect_unix(socket_path, &error);
  if (fd < 0) {
    fail("connect: " + error);
    return samples;
  }
  try {
    for (std::size_t i = static_cast<std::size_t>(offset); Clock::now() < deadline; ++i) {
      samples.push_back(submit_and_wait(fd, cycle[i % cycle.size()]));
      if (!samples.back().ok && samples.back().job_ms == 0) break;  // connection lost
    }
  } catch (const std::exception& e) {
    fail(e.what());
  }
  ::close(fd);
  return samples;
}

/// A running daemon and the time from start() to its first ping ack.
struct Served {
  std::unique_ptr<mr::Daemon> daemon;
  double ready_s = 0;
};

Served start_daemon(const std::string& dir) {
  Served served;
  mr::DaemonOptions opts;
  opts.socket_path = dir + "/d.sock";
  opts.lanes = kLanes;
  opts.work_dir = dir + "/work";
  const Clock::time_point t0 = Clock::now();
  served.daemon = std::make_unique<mr::Daemon>(opts);
  std::string error;
  if (!served.daemon->start(&error))
    throw std::runtime_error("perfbench: daemon start: " + error);
  const int fd = mr::connect_unix(opts.socket_path, &error);
  if (fd < 0) throw std::runtime_error("perfbench: connect: " + error);
  std::string ack;
  const bool acked = mr::write_frame(fd, "{\"op\": \"ping\"}", &error) &&
                     mr::read_frame(fd, &ack, &error);
  served.ready_s = seconds_since(t0);
  ::close(fd);
  if (!acked || ack.rfind("{\"ok\": true", 0) != 0)
    throw std::runtime_error("perfbench: ping: " + error + ack);
  return served;
}

/// Start → first ping ack, `count` times; the last daemon keeps running.
Served start_daemons(const std::string& dir, int count, std::vector<double>* ready_s) {
  for (int i = 0;; ++i) {
    Served served = start_daemon(dir);
    ready_s->push_back(served.ready_s);
    if (i + 1 == count) return served;
    served.daemon->stop();
    served.daemon->wait();
  }
}

/// Runs the closed loop for `seconds`; returns every client's samples (in
/// client order) and the wall time until the last client finished.
std::vector<std::vector<JobSample>> session(const std::string& socket_path,
                                            const std::vector<CycleJob>& cycle,
                                            double seconds, double* wall_s) {
  std::vector<std::vector<JobSample>> per_client(kClients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] { per_client[c] = client_loop(socket_path, cycle, c, deadline); });
  for (std::thread& t : clients) t.join();
  *wall_s = seconds_since(start);
  return per_client;
}

void count_operations(const std::vector<std::vector<JobSample>>& per_client,
                      Report& report) {
  for (const std::vector<JobSample>& samples : per_client)
    for (const JobSample& s : samples)
      report.operation(s.ok, std::string(kDaemon) + " " + kind_name(s.kind) +
                                 " job: " + s.error);
}

}  // namespace

void run_daemon(const Options& options, Report& report) {
  std::vector<CycleJob> cycle = make_cycle(options);
  compute_references(cycle, options.work_dir + "/reference");

  EndToEnd e2e;
  // Daemon start-up creates files and binds a socket: let write-back left
  // by earlier work (the references above, an earlier run) finish first.
  // Half the set-ups run before the session and half after it.
  const int setups = options.tiny ? 2 : kSetups;
  ::sync();
  Served served = start_daemons(options.work_dir, setups / 2, &e2e.setup_s);
  double wall_s = 0;
  const auto per_client =
      session(served.daemon->socket_path(), cycle, options.seconds, &wall_s);
  served.daemon->stop();
  served.daemon->wait();
  ::sync();
  start_daemons(options.work_dir, setups - setups / 2, &e2e.setup_s);
  count_operations(per_client, report);

  std::int64_t moves = 0;
  for (const std::vector<JobSample>& samples : per_client) {
    for (const JobSample& s : samples) {
      if (!s.ok) continue;
      moves += s.result.total_moves;
      e2e.job_ms.push_back(s.job_ms);
      ++e2e.jobs;
    }
    // One cycle of a client: four consecutive jobs (1 stream, 3 batch).
    for (std::size_t i = 0; i + 4 <= samples.size(); i += 4) {
      double cycle_s = 0;
      for (std::size_t j = i; j < i + 4; ++j) cycle_s += samples[j].job_ms / 1e3;
      e2e.suite_s.push_back(cycle_s);
    }
  }
  e2e.jobs_wall_s = wall_s;
  e2e.moves_per_s.push_back(wall_s > 0 ? moves / wall_s : 0);
  for (const CycleJob& job : cycle) e2e.sim_steps += job.reference.steps;
  e2e.sim_latency_p99_steps = static_cast<double>(cycle[0].reference.latency.p99);
  e2e.report(report);
}

void trace_daemon(const Options& options, Report& report) {
  std::vector<CycleJob> cycle = make_cycle(options);
  compute_references(cycle, options.work_dir + "/reference");

  std::vector<double> ready_s;
  Served served = start_daemons(options.work_dir, 1, &ready_s);
  double wall_s = 0;
  const auto per_client =
      session(served.daemon->socket_path(), cycle, options.tiny ? 1.0 : 4.0, &wall_s);
  served.daemon->stop();
  served.daemon->wait();
  count_operations(per_client, report);

  std::vector<double> ack_ms, first_ms;
  std::vector<double> frames[2], bytes[2], job_ms[2];
  for (const std::vector<JobSample>& samples : per_client)
    for (const JobSample& s : samples) {
      if (!s.ok) continue;
      const int k = static_cast<int>(s.kind);
      ack_ms.push_back(s.ack_ms);
      first_ms.push_back(s.first_frame_ms);
      frames[k].push_back(s.frames);
      bytes[k].push_back(static_cast<double>(s.bytes));
      job_ms[k].push_back(s.job_ms);
    }
  report.metric("service.ack_ms_p50", median(ack_ms), "ms");
  report.metric("service.first_frame_ms_p50", median(first_ms), "ms");
  for (Kind kind : {Kind::Batch, Kind::Stream}) {
    const int k = static_cast<int>(kind);
    const std::string suffix = std::string(".") + kind_name(kind);
    report.metric("service.frames_per_job" + suffix, median(frames[k]), "frames");
    report.metric("service.bytes_per_job" + suffix, median(bytes[k]), "bytes");
    report.metric("service.job_ms_p50" + suffix, quantile(job_ms[k], 0.5), "ms");
    report.metric("service.job_ms_p90" + suffix, quantile(job_ms[k], 0.9), "ms");
  }

  // The same specs without the daemon: execute_job (telemetry export on)
  // and run_workload with telemetry off. The gap is the telemetry cost.
  const int reps = options.tiny ? 1 : 3;
  std::vector<double> execute_ms[2], run_ms[2];
  mr::RunResult stream_run;
  for (int r = 0; r < reps; ++r) {
    for (const CycleJob& job : cycle) {
      const int k = static_cast<int>(job.kind);
      Clock::time_point t0 = Clock::now();
      const mr::RunResult direct = mr::execute_job(job.spec, options.work_dir + "/direct");
      execute_ms[k].push_back(1e3 * seconds_since(t0));

      const std::unique_ptr<mr::Topology> topo = mr::make_topology(
          job.spec.run.resolved_topology(), job.spec.run.width, job.spec.run.height);
      mr::RunResult plain;
      t0 = Clock::now();
      if (job.kind == Kind::Stream) {
        mr::BernoulliSource source(*topo, job.spec.traffic);
        mr::RunHooks hooks;
        hooks.traffic = &source;
        plain = mr::run_workload(job.spec.run, {}, hooks);
        stream_run = plain;
      } else {
        plain = mr::run_workload(job.spec.run,
                                 mr::random_permutation(*topo, job.spec.workload_seed));
      }
      run_ms[k].push_back(1e3 * seconds_since(t0));
      report.operation(same_result(direct, job.reference) && same_result(plain, job.reference),
                       std::string(kDaemon) + " direct " + kind_name(job.kind) +
                           " run differs from the reference");
    }
  }
  for (Kind kind : {Kind::Batch, Kind::Stream}) {
    const int k = static_cast<int>(kind);
    report.metric(std::string("service.execute_job_ms.") + kind_name(kind),
                  median(execute_ms[k]), "ms");
    report.metric(std::string("harness.run_workload_ms.") + kind_name(kind),
                  median(run_ms[k]), "ms");
  }

  // The traffic layer alone: BernoulliSource generating the stream job's
  // injections, and what the network accepted of them.
  const mr::JobSpec& stream = cycle[0].spec;
  const std::unique_ptr<mr::Topology> topo =
      mr::make_topology(stream.run.resolved_topology(), stream.run.width, stream.run.height);
  std::vector<double> ns_per_packet;
  for (int r = 0; r < (options.tiny ? 1 : 5); ++r) {
    mr::BernoulliSource source(*topo, stream.traffic);
    std::vector<mr::Demand> out;
    const Clock::time_point t0 = Clock::now();
    for (mr::Step step = 1; step <= stream.run.traffic_steps; ++step) {
      out.clear();
      source.emit(step, out);
    }
    const double s = seconds_since(t0);
    if (source.offered() > 0) ns_per_packet.push_back(1e9 * s / source.offered());
  }
  report.metric("traffic.source_ns_per_packet", median(ns_per_packet), "ns");
  const double offered_slots =
      static_cast<double>(stream.run.traffic_steps) * topo->num_nodes();
  report.metric("traffic.accepted_rate",
                offered_slots > 0 ? stream_run.delivered / offered_slots : 0,
                "pkt/node/step");
  report.metric("traffic.latency_p50_steps", static_cast<double>(stream_run.latency.p50),
                "steps");
}

}  // namespace perfbench

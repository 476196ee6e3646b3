// Job specs for meshrouted: the JSON body of a {"op": "submit"} request,
// parsed into the harness RunSpec the daemon executes.
//
// Job JSON schema (all optional unless noted; every key but "rate" is an
// integer: a whole JSON number in int64 range, anything else is an error):
//   {
//     "algorithm": "...",        required — routing registry name
//     "width": W, "height": H,   required — router grid
//     "topology": "mesh",        registry name (mesh, torus, cmesh-N)
//     "k": 1,                    queue capacity
//     "max_steps": 0,            0 = auto budget
//     "stall_limit": ...,
//     "shards": 1, "threads": 1, sharded-engine request
//     "sample_every": 16,        telemetry sampling period
//     "traffic": {               presence selects an open-loop run
//       "pattern": "uniform",    uniform | transpose | bitcomp | tornado |
//                                hotspot
//       "rate": 0.1, "seed": 1, "steps": N   (steps required)
//     },
//     "checkpoint": {"dir": "...", "every": 256, "key": "..."}
//   }
// Without "traffic" the job routes a random-permutation batch workload
// seeded by "seed" (default 1).
#pragma once

#include <string>

#include "core/json_min.hpp"
#include "harness/runner.hpp"
#include "traffic/pattern.hpp"

namespace mr {

struct JobSpec {
  RunSpec run;
  bool open_loop = false;  ///< run with a BernoulliSource (see `traffic`)
  TrafficSpec traffic;
  std::uint64_t workload_seed = 1;  ///< batch permutation seed (closed loop)
  std::string slug;                 ///< telemetry export slug; empty = auto
};

/// Parses the "job" object of a submit request. On failure returns false
/// and describes the problem in *error.
bool parse_job_spec(const json::Value& job, JobSpec* out, std::string* error);

/// Executes the job: builds the topology/workload/source, runs it through
/// run_workload with telemetry series enabled, and exports the
/// meshroute-telemetry/1 artefacts under `work_dir`. The result's
/// telemetry_path names the JSONL file to stream. Throws on engine errors
/// (callers frame those as {"kind": "error"}).
RunResult execute_job(const JobSpec& spec, const std::string& work_dir);

}  // namespace mr

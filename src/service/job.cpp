#include "service/job.hpp"

#include <memory>

#include "topo/registry.hpp"
#include "traffic/source.hpp"
#include "workload/permutation.hpp"

namespace mr {

bool parse_job_spec(const json::Value& job, JobSpec* out, std::string* error) {
  const auto fail = [error](const std::string& what) {
    if (error) *error = "job: " + what;
    return false;
  };
  if (!job.is_object()) return fail("not an object");

  // Integer keys are optional; a present one must be a whole number in
  // int64 range. The first malformed key is remembered in `bad` and fails
  // the spec (reading it as absent would silently apply the default).
  std::string bad;
  const auto get_int = [&bad](const json::Value& obj, const char* key,
                              std::int64_t* value) {
    const json::Value* v = obj.find(key);
    if (!v) return false;
    if (json::whole_int64(*v, value)) return true;
    if (bad.empty())
      bad = std::string("\"") + key +
            "\" must be a whole number in int64 range";
    return false;
  };

  JobSpec spec;
  const json::Value* algorithm = job.find("algorithm");
  if (!algorithm || !algorithm->is_string() || algorithm->string.empty())
    return fail("missing \"algorithm\"");
  spec.run.algorithm = algorithm->string;

  std::int64_t width = 0, height = 0;
  if (!get_int(job, "width", &width) || !get_int(job, "height", &height) ||
      width < 1 || height < 1)
    return fail(bad.empty() ? "missing or non-positive \"width\"/\"height\""
                            : bad);
  if (!json::fits_int32(width) || !json::fits_int32(height))
    return fail("\"width\"/\"height\" out of int32 range");
  spec.run.width = static_cast<std::int32_t>(width);
  spec.run.height = static_cast<std::int32_t>(height);

  if (const json::Value* topo = job.find("topology")) {
    if (!topo->is_string()) return fail("\"topology\" must be a string");
    if (!known_topology(topo->string))
      return fail("unknown topology \"" + topo->string + "\"");
    spec.run.topology = topo->string;
  }

  std::int64_t v = 0;
  if (get_int(job, "k", &v)) {
    if (v < 1) return fail("\"k\" must be >= 1");
    if (!json::fits_int32(v)) return fail("\"k\" out of int32 range");
    spec.run.queue_capacity = static_cast<int>(v);
  }
  if (get_int(job, "max_steps", &v)) {
    if (v < 0) return fail("\"max_steps\" must be >= 0");
    spec.run.max_steps = v;
  }
  if (get_int(job, "stall_limit", &v)) {
    if (v < 1) return fail("\"stall_limit\" must be >= 1");
    spec.run.stall_limit = v;
  }
  if (get_int(job, "shards", &v)) {
    if (v < 1) return fail("\"shards\" must be >= 1");
    if (!json::fits_int32(v)) return fail("\"shards\" out of int32 range");
    spec.run.engine_shards = static_cast<int>(v);
  }
  if (get_int(job, "threads", &v)) {
    if (v < 1) return fail("\"threads\" must be >= 1");
    if (!json::fits_int32(v)) return fail("\"threads\" out of int32 range");
    spec.run.engine_threads = static_cast<int>(v);
  }
  if (get_int(job, "sample_every", &v)) {
    if (v < 1) return fail("\"sample_every\" must be >= 1");
    spec.run.telemetry.sample_every = v;
  }
  if (get_int(job, "seed", &v)) spec.workload_seed = static_cast<std::uint64_t>(v);

  if (const json::Value* slug = job.find("slug")) {
    if (!slug->is_string()) return fail("\"slug\" must be a string");
    spec.slug = slug->string;
  }

  if (const json::Value* traffic = job.find("traffic")) {
    if (!traffic->is_object()) return fail("\"traffic\" must be an object");
    spec.open_loop = true;
    if (const json::Value* pattern = traffic->find("pattern")) {
      if (!pattern->is_string() ||
          !parse_traffic_pattern(pattern->string, &spec.traffic.pattern))
        return fail("unknown traffic pattern");
    }
    if (const json::Value* rate = traffic->find("rate")) {
      if (!rate->is_number() || rate->number < 0 || rate->number > 1)
        return fail("\"traffic.rate\" must be in [0, 1]");
      spec.traffic.rate = rate->number;
    }
    if (get_int(*traffic, "seed", &v))
      spec.traffic.seed = static_cast<std::uint64_t>(v);
    if (!get_int(*traffic, "steps", &v) || v < 1)
      return fail(bad.empty() ? "\"traffic.steps\" must be >= 1" : bad);
    spec.run.traffic_steps = v;
  }

  if (const json::Value* ckpt = job.find("checkpoint")) {
    if (!ckpt->is_object()) return fail("\"checkpoint\" must be an object");
    const json::Value* dir = ckpt->find("dir");
    const json::Value* key = ckpt->find("key");
    if (!dir || !dir->is_string() || !key || !key->is_string() ||
        dir->string.empty() || key->string.empty())
      return fail("\"checkpoint\" needs non-empty \"dir\" and \"key\"");
    spec.run.checkpoint.dir = dir->string;
    spec.run.checkpoint.key = key->string;
    if (get_int(*ckpt, "every", &v)) {
      if (v < 1) return fail("\"checkpoint.every\" must be >= 1");
      spec.run.checkpoint.every = v;
    }
  }

  if (!bad.empty()) return fail(bad);
  *out = std::move(spec);
  return true;
}

RunResult execute_job(const JobSpec& spec, const std::string& work_dir) {
  RunSpec run = spec.run;
  run.telemetry.series = true;
  run.telemetry.export_dir = work_dir;
  run.telemetry.slug = spec.slug;

  if (spec.open_loop) {
    const std::unique_ptr<Topology> topo =
        make_topology(run.resolved_topology(), run.width, run.height);
    BernoulliSource source(*topo, spec.traffic);
    RunHooks hooks;
    hooks.traffic = &source;
    return run_workload(run, {}, hooks);
  }

  const std::unique_ptr<Topology> topo =
      make_topology(run.resolved_topology(), run.width, run.height);
  const Workload workload = random_permutation(*topo, spec.workload_seed);
  return run_workload(run, workload);
}

}  // namespace mr

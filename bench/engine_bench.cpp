#include "engine_bench.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "core/json_min.hpp"
#include "routing/registry.hpp"
#include "sim/engine.hpp"
#include "topo/mesh.hpp"
#include "workload/permutation.hpp"

namespace mr::engine_bench {
namespace {

Workload workload_for(const Mesh& mesh, bool per_inlink) {
  Workload w;
  for (const Demand& d : random_permutation(mesh, 42)) {
    const Coord s = mesh.coord_of(d.source);
    const Coord t = mesh.coord_of(d.dest);
    if (per_inlink || (t.col >= s.col && t.row >= s.row)) w.push_back(d);
  }
  return w;
}

/// True when `v` is a whole number in [lo, INT32_MAX].
bool whole_int32_at_least(const json::Value& v, int lo) {
  return v.is_number() && v.number >= lo &&
         v.number <= std::numeric_limits<std::int32_t>::max() &&
         v.number == static_cast<double>(static_cast<std::int64_t>(v.number));
}

/// Reads, parses and schema-checks the record at `path`; prints the first
/// problem found and returns nullopt on any.
std::optional<json::Value> checked_record(const std::string& path) {
  auto complain = [&](const std::string& msg) {
    std::fprintf(stderr, "validate: %s: %s\n", path.c_str(), msg.c_str());
    return std::nullopt;
  };
  std::ifstream in(path);
  if (!in.good()) return complain("cannot read");
  std::ostringstream buf;
  buf << in.rdbuf();

  std::string parse_error;
  std::optional<json::Value> doc = json::parse(buf.str(), &parse_error);
  if (!doc) return complain(parse_error);
  if (!doc->is_object()) return complain("top level is not an object");

  const json::Value* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() || schema->string != kSchema)
    return complain("missing or wrong \"schema\"");
  const json::Value* qc = doc->find("queue_capacity");
  if (qc == nullptr || !qc->is_number() || qc->number < 1)
    return complain("missing or non-positive \"queue_capacity\"");
  const json::Value* results = doc->find("results");
  if (results == nullptr || !results->is_array())
    return complain("missing \"results\" array");

  int count = 0;
  for (const json::Value& entry : results->array) {
    if (!entry.is_object())
      return complain("results[" + std::to_string(count) +
                      "] is not an object");
    const json::Value* router = entry.find("router");
    if (router == nullptr || !router->is_string() || router->string.empty())
      return complain("results entry: missing \"router\" string");
    const std::string row = "results entry \"" + router->string + "\": ";
    for (const char* key : {"n", "steps", "seconds", "moves_per_sec"}) {
      const json::Value* v = entry.find(key);
      if (v == nullptr || !v->is_number() || v->number <= 0)
        return complain(row + "missing or non-positive \"" + key + "\"");
    }
    for (const char* key : {"moves", "delivered", "packets"}) {
      const json::Value* v = entry.find(key);
      if (v == nullptr || !v->is_number() || v->number < 0)
        return complain(row + "missing or negative \"" + key + "\"");
    }
    // The keys the guard turns back into an engine run must be whole
    // int32 values. The engine-mode keys are optional (older records lack
    // them).
    if (!whole_int32_at_least(*entry.find("n"), 1))
      return complain(row + "\"n\" is not a whole int32");
    for (const auto& [key, lo] :
         {std::pair{"shards", 1}, std::pair{"threads", 1},
          std::pair{"max_steps", 0}}) {
      const json::Value* v = entry.find(key);
      if (v != nullptr && !whole_int32_at_least(*v, lo))
        return complain(row + "\"" + key + "\" is not a whole int32 >= " +
                        std::to_string(lo));
    }
    ++count;
  }
  if (count == 0) return complain("results array is empty");
  return doc;
}

}  // namespace

RunStats run_once(const std::string& name, std::int32_t n, int shards,
                  int threads, std::int64_t max_steps) {
  const Mesh mesh = Mesh::square(n);
  const bool per_inlink =
      make_algorithm(name)->queue_layout() == QueueLayout::PerInlink;
  const Workload w = workload_for(mesh, per_inlink);
  RunStats r;
  r.router = name;
  r.layout = per_inlink ? "per-inlink" : "central";
  r.n = n;
  r.shards = shards;
  r.threads = threads;
  r.max_steps = max_steps;
  Engine::Config config;
  config.queue_capacity = kQueueCapacity;
  config.shards = shards;
  config.threads = threads;
  Engine engine(mesh, config, [&] { return make_algorithm(name); });
  for (const Demand& d : w) engine.add_packet(d.source, d.dest, d.injected_at);
  engine.prepare();
  const auto t0 = std::chrono::steady_clock::now();
  r.steps = engine.run(max_steps > 0 ? max_steps : 200000);
  const auto t1 = std::chrono::steady_clock::now();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.moves = engine.total_moves();
  r.moves_per_sec =
      r.seconds > 0 ? static_cast<double>(r.moves) / r.seconds : 0;
  r.delivered = engine.delivered_count();
  r.packets = engine.num_packets();
  r.stalled = engine.stalled();
  return r;
}

bool write_json(const std::string& path, const std::vector<RunStats>& all,
                bool smoke) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"schema\": \"" << kSchema << "\",\n"
      << "  \"scale\": \"" << (smoke ? "smoke" : "default") << "\",\n"
      << "  \"queue_capacity\": " << kQueueCapacity << ",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const RunStats& r = all[i];
    out << "    {\"router\": \"" << r.router << "\", \"layout\": \""
        << r.layout << "\", \"n\": " << r.n << ", \"steps\": " << r.steps
        << ", \"moves\": " << r.moves << ", \"seconds\": " << r.seconds
        << ", \"moves_per_sec\": " << r.moves_per_sec
        << ", \"delivered\": " << r.delivered
        << ", \"packets\": " << r.packets << ", \"stalled\": "
        << (r.stalled ? "true" : "false") << ", \"shards\": " << r.shards
        << ", \"threads\": " << r.threads
        << ", \"max_steps\": " << r.max_steps << "}"
        << (i + 1 < all.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.good();
}

bool validate_json(const std::string& path) {
  const std::optional<json::Value> doc = checked_record(path);
  if (!doc) return false;
  std::printf("validate: %s ok (%zu results)\n", path.c_str(),
              doc->find("results")->array.size());
  return true;
}

int throughput_guard(const std::string& baseline_path) {
  // Validation comes first: every row is then well-formed, so no row is
  // skipped and no engine runs on a malformed one.
  const std::optional<json::Value> doc = checked_record(baseline_path);
  if (!doc) return 1;

  bool ok = true;
  int compared = 0;
  for (const json::Value& entry : doc->find("results")->array) {
    const std::string& router = entry.find("router")->string;
    const auto n = static_cast<std::int32_t>(entry.find("n")->number);
    const double rate = entry.find("moves_per_sec")->number;
    // Reproduce the row's engine mode so the comparison is like-for-like.
    const auto int_or = [&](const char* key, int fallback) {
      const json::Value* v = entry.find(key);
      return v != nullptr ? static_cast<int>(v->number) : fallback;
    };
    const int shards = int_or("shards", 1);
    const int threads = int_or("threads", 1);
    const std::int64_t max_steps = int_or("max_steps", 0);
    // Best of 3: guards against a one-off scheduling hiccup being read as
    // a regression.
    RunStats best;
    for (int rep = 0; rep < 3; ++rep) {
      RunStats r = run_once(router, n, shards, threads, max_steps);
      if (rep == 0 || r.moves_per_sec > best.moves_per_sec) best = r;
    }
    const double floor = rate * (1.0 - kGuardTolerance);
    const bool pass = best.moves_per_sec >= floor;
    std::printf("guard: %-24s n=%-4d %8.2f Kmoves/s vs baseline %8.2f (floor "
                "%8.2f) %s\n",
                best.router.c_str(), best.n, best.moves_per_sec / 1e3,
                rate / 1e3, floor / 1e3, pass ? "ok" : "REGRESSED");
    ok = ok && pass;
    ++compared;
  }
  std::printf("guard: %d results vs %s, tolerance %.0f%%: %s\n", compared,
              baseline_path.c_str(), kGuardTolerance * 100,
              ok ? "ok" : "FAIL");
  return ok ? 0 : 1;
}

int sweep_reps(bool smoke) { return smoke ? 1 : 3; }

std::vector<RunStats> router_sweep(bool smoke) {
  const std::vector<std::int32_t> sizes =
      smoke ? std::vector<std::int32_t>{8}
            : std::vector<std::int32_t>{32, 64, 120};
  std::vector<RunStats> rows;
  for (const std::string& name : algorithm_names()) {
    for (std::int32_t n : sizes) {
      RunStats best;
      for (int rep = 0; rep < sweep_reps(smoke); ++rep) {
        RunStats r = run_once(name, n);
        if (rep == 0 || r.moves_per_sec > best.moves_per_sec) best = r;
      }
      rows.push_back(best);
    }
  }
  return rows;
}

int json_sweep(const std::string& path, bool smoke) {
  std::vector<RunStats> all = router_sweep(smoke);
  for (const RunStats& r : all)
    std::printf("%-24s n=%-4d steps=%-6lld moves=%-9lld %8.2f Kmoves/s%s\n",
                r.router.c_str(), r.n, static_cast<long long>(r.steps),
                static_cast<long long>(r.moves), r.moves_per_sec / 1e3,
                r.stalled ? " STALLED" : "");
  if (!smoke) {
    // Scaled sharded rows: a 1024×1024 bounded-dimension-order run,
    // step-budgeted (draining a million-packet permutation would dominate
    // the sweep), sequential vs sharded. The routing work is bit-identical
    // across rows — only wall-clock differs — so the moves_per_sec ratio
    // is a direct parallel-speedup measurement on the host machine.
    constexpr std::int32_t kBigN = 1024;
    constexpr std::int64_t kBigBudget = 48;
    struct Mode {
      int shards;
      int threads;
    };
    for (const Mode m : {Mode{1, 1}, Mode{4, 4}, Mode{8, 8}}) {
      RunStats r = run_once("bounded-dimension-order", kBigN, m.shards,
                            m.threads, kBigBudget);
      std::printf(
          "%-24s n=%-4d shards=%d threads=%d steps=%-6lld %8.2f Kmoves/s\n",
          r.router.c_str(), r.n, r.shards, r.threads,
          static_cast<long long>(r.steps), r.moves_per_sec / 1e3);
      all.push_back(r);
    }
  }
  if (!write_json(path, all, smoke)) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu results)\n", path.c_str(), all.size());
  return validate_json(path) ? 0 : 1;
}

}  // namespace mr::engine_bench

#include "harness/checkpoint.hpp"

#include <cstdio>
#include <sstream>

#include "core/json_min.hpp"

namespace mr {

std::string exact_double(double v) { return json::exact_number_to_string(v); }

std::string run_result_to_json(const RunResult& r) {
  std::ostringstream out;
  out << "{\"format\": \"meshroute-run/1\""
      << ", \"steps\": " << r.steps
      << ", \"all_delivered\": " << (r.all_delivered ? "true" : "false")
      << ", \"stalled\": " << (r.stalled ? "true" : "false")
      << ", \"packets\": " << r.packets << ", \"delivered\": " << r.delivered
      << ", \"max_queue\": " << r.max_queue
      << ", \"total_moves\": " << r.total_moves
      << ", \"latency\": {\"mean\": " << exact_double(r.latency.mean)
      << ", \"p50\": " << r.latency.p50 << ", \"p95\": " << r.latency.p95
      << ", \"p99\": " << r.latency.p99 << ", \"max\": " << r.latency.max
      << "}, \"engine_mode\": \"" << to_string(r.engine_mode) << "\""
      << ", \"telemetry_path\": \"" << json::escape(r.telemetry_path) << "\"";
  if (r.phase_profile) {
    out << ", \"phase_profile\": {\"seconds\": [";
    for (int i = 0; i < kNumPhases; ++i) {
      if (i) out << ", ";
      out << exact_double(r.phase_profile->seconds[static_cast<std::size_t>(i)]);
    }
    out << "], \"total_seconds\": " << exact_double(r.phase_profile->total_seconds)
        << ", \"steps\": " << r.phase_profile->steps << "}";
  }
  out << "}\n";
  return out.str();
}

bool run_result_from_json(const std::string& text, RunResult* result,
                          std::string* error) {
  const auto fail = [error](const std::string& what) {
    if (error) *error = "meshroute-run/1: " + what;
    return false;
  };
  std::string parse_error;
  std::optional<json::Value> doc = json::parse(text, &parse_error);
  if (!doc || !doc->is_object()) return fail("not a JSON object: " + parse_error);
  const json::Value* format = doc->find("format");
  if (!format || !format->is_string() || format->string != "meshroute-run/1")
    return fail("missing or wrong \"format\"");

  RunResult r;
  std::int64_t packets = 0, delivered = 0, max_queue = 0;
  if (!json::get_int(*doc, "steps", &r.steps) ||
      !json::get_int(*doc, "packets", &packets) ||
      !json::get_int(*doc, "delivered", &delivered) ||
      !json::get_int(*doc, "max_queue", &max_queue) ||
      !json::get_int(*doc, "total_moves", &r.total_moves) ||
      !json::get_bool(*doc, "all_delivered", &r.all_delivered) ||
      !json::get_bool(*doc, "stalled", &r.stalled))
    return fail("missing scalar field");
  r.packets = static_cast<std::size_t>(packets);
  r.delivered = static_cast<std::size_t>(delivered);
  r.max_queue = static_cast<int>(max_queue);

  const json::Value* latency = doc->find("latency");
  if (!latency || !latency->is_object()) return fail("missing \"latency\"");
  if (!json::get_double(*latency, "mean", &r.latency.mean) ||
      !json::get_int(*latency, "p50", &r.latency.p50) ||
      !json::get_int(*latency, "p95", &r.latency.p95) ||
      !json::get_int(*latency, "p99", &r.latency.p99) ||
      !json::get_int(*latency, "max", &r.latency.max))
    return fail("malformed \"latency\"");

  const json::Value* mode = doc->find("engine_mode");
  if (!mode || !mode->is_string()) return fail("missing \"engine_mode\"");
  const std::optional<EngineMode> parsed = parse_engine_mode(mode->string);
  if (!parsed) return fail("unknown engine_mode \"" + mode->string + "\"");
  r.engine_mode = *parsed;

  const json::Value* path = doc->find("telemetry_path");
  if (!path || !path->is_string()) return fail("missing \"telemetry_path\"");
  r.telemetry_path = path->string;

  if (const json::Value* profile = doc->find("phase_profile")) {
    if (!profile->is_object()) return fail("malformed \"phase_profile\"");
    PhaseProfile pp;
    const json::Value* seconds = profile->find("seconds");
    if (!seconds || !seconds->is_array() ||
        seconds->array.size() != static_cast<std::size_t>(kNumPhases))
      return fail("malformed \"phase_profile.seconds\"");
    for (int i = 0; i < kNumPhases; ++i) {
      const json::Value& s = seconds->array[static_cast<std::size_t>(i)];
      if (!s.is_number()) return fail("malformed \"phase_profile.seconds\"");
      pp.seconds[static_cast<std::size_t>(i)] = s.number;
    }
    if (!json::get_double(*profile, "total_seconds", &pp.total_seconds) ||
        !json::get_int(*profile, "steps", &pp.steps))
      return fail("malformed \"phase_profile\"");
    r.phase_profile = pp;
  }

  *result = std::move(r);
  return true;
}

}  // namespace mr

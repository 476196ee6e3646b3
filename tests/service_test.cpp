// meshrouted service tests: frame round trips over a socketpair, job-spec
// parsing, and an in-process daemon serving two concurrent jobs over two
// connections — streamed telemetry must reassemble into a valid
// meshroute-telemetry/1 file and the result frames must parse as
// meshroute-run/1 records. Shutdown must leave no thread behind (the
// Daemon destructor joins everything; TSan/ASan watch).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/json_min.hpp"
#include "harness/checkpoint.hpp"
#include "service/daemon.hpp"
#include "service/job.hpp"
#include "service/protocol.hpp"
#include "telemetry/export.hpp"

namespace mr {
namespace {

TEST(Protocol, FrameRoundTripsOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string error;
  ASSERT_TRUE(write_frame(fds[0], "{\"op\": \"ping\"}", &error)) << error;
  ASSERT_TRUE(write_frame(fds[0], "", &error)) << error;  // empty payload
  std::string payload;
  ASSERT_TRUE(read_frame(fds[1], &payload, &error)) << error;
  EXPECT_EQ(payload, "{\"op\": \"ping\"}");
  ASSERT_TRUE(read_frame(fds[1], &payload, &error)) << error;
  EXPECT_EQ(payload, "");
  // Clean EOF: false with no error message.
  ::close(fds[0]);
  EXPECT_FALSE(read_frame(fds[1], &payload, &error));
  EXPECT_TRUE(error.empty()) << error;
  ::close(fds[1]);
}

TEST(Protocol, RejectsOversizedFrame) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // A length prefix beyond kMaxFrameBytes must be rejected before any
  // allocation of that size.
  const unsigned char huge[4] = {0xFF, 0xFF, 0xFF, 0x7F};
  ASSERT_EQ(::send(fds[0], huge, sizeof huge, 0),
            static_cast<ssize_t>(sizeof huge));
  std::string payload, error;
  EXPECT_FALSE(read_frame(fds[1], &payload, &error));
  EXPECT_NE(error.find("exceeds limit"), std::string::npos) << error;
  ::close(fds[0]);
  ::close(fds[1]);
}

json::Value parse_ok(const std::string& text) {
  std::string error;
  std::optional<json::Value> doc = json::parse(text, &error);
  EXPECT_TRUE(doc.has_value()) << error << " in " << text;
  return doc ? std::move(*doc) : json::Value{};
}

TEST(JobSpec, ParsesFullSpec) {
  const json::Value doc = parse_ok(
      "{\"algorithm\": \"bounded-dimension-order\", \"width\": 8, "
      "\"height\": 8, \"topology\": \"torus\", \"k\": 2, \"shards\": 2, "
      "\"threads\": 2, \"sample_every\": 8, \"traffic\": {\"pattern\": "
      "\"transpose\", \"rate\": 0.25, \"seed\": 9, \"steps\": 32}}");
  JobSpec spec;
  std::string error;
  ASSERT_TRUE(parse_job_spec(doc, &spec, &error)) << error;
  EXPECT_EQ(spec.run.algorithm, "bounded-dimension-order");
  EXPECT_EQ(spec.run.resolved_topology(), "torus");
  EXPECT_EQ(spec.run.queue_capacity, 2);
  EXPECT_EQ(spec.run.engine_shards, 2);
  EXPECT_TRUE(spec.open_loop);
  EXPECT_EQ(spec.traffic.pattern, TrafficPattern::Transpose);
  EXPECT_EQ(spec.run.traffic_steps, 32);
}

TEST(JobSpec, RejectsMalformedSpecs) {
  JobSpec spec;
  std::string error;
  EXPECT_FALSE(parse_job_spec(parse_ok("{}"), &spec, &error));
  EXPECT_FALSE(parse_job_spec(
      parse_ok("{\"algorithm\": \"dimension-order\"}"), &spec, &error));
  EXPECT_FALSE(parse_job_spec(
      parse_ok("{\"algorithm\": \"dimension-order\", \"width\": 4, "
               "\"height\": 4, \"topology\": \"hypercube\"}"),
      &spec, &error));
  EXPECT_FALSE(parse_job_spec(
      parse_ok("{\"algorithm\": \"dimension-order\", \"width\": 4, "
               "\"height\": 4, \"traffic\": {\"rate\": 0.1}}"),
      &spec, &error));  // traffic without steps
  // Sizes past int32 are rejected, not truncated (2^32 + 1 would become 1).
  EXPECT_FALSE(parse_job_spec(
      parse_ok("{\"algorithm\": \"dimension-order\", \"width\": 4294967297, "
               "\"height\": 4}"),
      &spec, &error));
  EXPECT_NE(error.find("int32"), std::string::npos) << error;
  for (const char* key : {"k", "shards", "threads"}) {
    EXPECT_FALSE(parse_job_spec(
        parse_ok(std::string("{\"algorithm\": \"dimension-order\", "
                             "\"width\": 4, \"height\": 4, \"") +
                 key + "\": 4294967297}"),
        &spec, &error))
        << key;
    EXPECT_NE(error.find("int32"), std::string::npos) << error;
  }
  // A present integer key is a whole number in int64 range or an error:
  // never an out-of-range cast, a truncation or a silent default.
  for (const char* extra : {"\"width\": 1e30, \"height\": 4",
                            "\"width\": 4, \"height\": 4, \"k\": 2.5",
                            "\"width\": 4, \"height\": 4, \"k\": \"3\""}) {
    error.clear();
    EXPECT_FALSE(parse_job_spec(
        parse_ok(std::string("{\"algorithm\": \"dimension-order\", ") +
                 extra + "}"),
        &spec, &error))
        << extra;
    EXPECT_NE(error.find("whole number"), std::string::npos) << error;
  }
  EXPECT_FALSE(error.empty());
}

/// Collected terminal state of one client connection.
struct ClientOutcome {
  std::vector<std::string> telemetry_lines;
  std::vector<std::string> results;  ///< result frames, in arrival order
  std::vector<std::string> errors;
};

/// Submits `job_json` and drains frames until the job's result arrives.
ClientOutcome run_client_job(const std::string& socket_path,
                             const std::string& job_json) {
  ClientOutcome out;
  std::string error;
  const int fd = connect_unix(socket_path, &error);
  EXPECT_GE(fd, 0) << error;
  if (fd < 0) return out;
  EXPECT_TRUE(write_frame(fd, "{\"op\": \"submit\", \"job\": " + job_json + "}",
                          &error))
      << error;
  std::string payload;
  while (out.results.empty() && out.errors.empty() &&
         read_frame(fd, &payload, &error)) {
    const json::Value doc = parse_ok(payload);
    if (const json::Value* ok = doc.find("ok")) {
      EXPECT_TRUE(ok->boolean) << payload;
      continue;
    }
    const json::Value* kind = doc.find("kind");
    EXPECT_TRUE(kind != nullptr && kind->is_string()) << payload;
    if (kind == nullptr || !kind->is_string()) break;
    if (kind->string == "telemetry") {
      const json::Value* line = doc.find("line");
      EXPECT_TRUE(line != nullptr && line->is_string());
      if (line != nullptr && line->is_string())
        out.telemetry_lines.push_back(line->string);
    } else if (kind->string == "result") {
      out.results.push_back(payload);
    } else {
      out.errors.push_back(payload);
    }
  }
  ::close(fd);
  return out;
}

TEST(Daemon, ServesTwoConcurrentJobs) {
  const std::string dir = ::testing::TempDir() + "meshrouted_test";
  DaemonOptions options;
  options.socket_path = dir + "/daemon.sock";
  options.lanes = 2;
  options.work_dir = dir + "/work";
  Daemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;

  // Two jobs on two connections, driven from two threads so both lanes
  // serve at once (each blocks until its own result frame).
  ClientOutcome a, b;
  // Both jobs use the bounded router: plain dimension-order can livelock
  // with k=2 and the point here is concurrency, not router stress.
  std::thread ta([&] {
    a = run_client_job(options.socket_path,
                       "{\"algorithm\": \"bounded-dimension-order\", "
                       "\"width\": 8, \"height\": 8, \"k\": 2, \"seed\": 5}");
  });
  std::thread tb([&] {
    b = run_client_job(
        options.socket_path,
        "{\"algorithm\": \"bounded-dimension-order\", \"width\": 8, "
        "\"height\": 8, \"k\": 2, \"traffic\": {\"pattern\": \"uniform\", "
        "\"rate\": 0.05, \"seed\": 11, \"steps\": 48}}");
  });
  ta.join();
  tb.join();

  for (const ClientOutcome* out : {&a, &b}) {
    EXPECT_TRUE(out->errors.empty())
        << (out->errors.empty() ? "" : out->errors.front());
    ASSERT_EQ(out->results.size(), 1u);
    // The embedded result object is a valid meshroute-run/1 record.
    const json::Value frame = parse_ok(out->results.front());
    const json::Value* result = frame.find("result");
    ASSERT_TRUE(result != nullptr && result->is_object());
    RunResult run;
    std::string parse_error;
    // Re-serialise the frame's result member through the JSON writer to
    // re-parse it with the checkpoint reader.
    const std::size_t pos = out->results.front().find("\"result\": ");
    ASSERT_NE(pos, std::string::npos);
    std::string body = out->results.front().substr(pos + 10);
    ASSERT_FALSE(body.empty());
    body.pop_back();  // trailing '}' of the frame
    ASSERT_TRUE(run_result_from_json(body, &run, &parse_error)) << parse_error;
    EXPECT_TRUE(run.all_delivered);
    EXPECT_FALSE(run.stalled);

    // The streamed lines reassemble into a validating JSONL file.
    ASSERT_FALSE(out->telemetry_lines.empty());
    const std::string path =
        dir + "/stream" + (out == &a ? "_a" : "_b") + ".jsonl";
    std::ofstream jsonl(path);
    for (const std::string& line : out->telemetry_lines) jsonl << line << "\n";
    jsonl.close();
    ASSERT_TRUE(validate_telemetry_jsonl(path, &parse_error)) << parse_error;
  }
  EXPECT_EQ(daemon.jobs_completed(), 2u);

  // A client-initiated shutdown stops the daemon; wait() must return.
  const int fd = connect_unix(options.socket_path, &error);
  ASSERT_GE(fd, 0) << error;
  std::string ack;
  ASSERT_TRUE(write_frame(fd, "{\"op\": \"shutdown\"}", &error)) << error;
  ASSERT_TRUE(read_frame(fd, &ack, &error)) << error;
  EXPECT_EQ(parse_ok(ack).find("ok")->boolean, true);
  ::close(fd);
  daemon.wait();
}

TEST(Daemon, RejectsMalformedRequests) {
  const std::string dir = ::testing::TempDir() + "meshrouted_reject";
  DaemonOptions options;
  options.socket_path = dir + "/daemon.sock";
  options.lanes = 1;
  Daemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;

  const int fd = connect_unix(options.socket_path, &error);
  ASSERT_GE(fd, 0) << error;
  std::string payload;
  ASSERT_TRUE(write_frame(fd, "not json", &error)) << error;
  ASSERT_TRUE(read_frame(fd, &payload, &error)) << error;
  EXPECT_NE(payload.find("\"ok\": false"), std::string::npos) << payload;
  ASSERT_TRUE(write_frame(fd, "{\"op\": \"submit\"}", &error)) << error;
  ASSERT_TRUE(read_frame(fd, &payload, &error)) << error;
  EXPECT_NE(payload.find("\"ok\": false"), std::string::npos) << payload;
  ASSERT_TRUE(write_frame(fd, "{\"op\": \"ping\"}", &error)) << error;
  ASSERT_TRUE(read_frame(fd, &payload, &error)) << error;
  EXPECT_EQ(payload, "{\"ok\": true}");
  ::close(fd);
  daemon.stop();
  daemon.wait();
}

}  // namespace
}  // namespace mr

// perfbench entry point. Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--tiny]
// NAME is batch-n120, sharded-n1024, daemon-mixed or suite-smoke. DIR is a
// scratch directory the run creates and removes. The last stdout line is
// the result object; on a usage or set-up error nothing is printed there
// and the exit code is non-zero.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "perfbench.hpp"

namespace {

int usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--tiny]\n",
               problem);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || options.work_dir.empty()) return usage("--workload and --work-dir are required");
  if (options.seconds <= 0) return usage("--seconds must be positive");

  using Runner = void (*)(const Options&, Report&);
  Runner untraced = nullptr;
  if (options.workload == kBatch) untraced = run_batch;
  else if (options.workload == kSharded) untraced = run_sharded;
  else if (options.workload == kDaemon) untraced = run_daemon;
  else if (options.workload == kSuite) untraced = run_suite;
  else return usage(("unknown workload " + options.workload).c_str());

  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) return usage(("cannot create " + options.work_dir).c_str());
  int status = 0;
  try {
    Report report;
    if (options.trace) {
      // The traced run measures every layer, whichever workload it names.
      trace_batch(options, report);
      trace_sharded(options, report);
      trace_daemon(options, report);
      trace_suite(options, report);
    } else {
      untraced(options, report);
    }
    report.print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    status = 1;
  }
  std::filesystem::remove_all(options.work_dir, ec);
  return status;
}

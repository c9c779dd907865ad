// Benchmark executable: runs one phase of one workload and prints what it
// measured as a single JSON object on stdout. perfbench/run.py calls it once
// per phase and repetition, each in a fresh process, so a phase's peak RSS
// and timings are its own. See README.md in this directory.
//
//   perfbench --workload <name> --phase <phase> [--seed N] [--tiny]
//             [--threads N] [--trace] [--device-backend] [--spans FILE]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "probe.h"
#include "workloads.h"

extern char** environ;

namespace {

// The workloads pin their machine in code; a DCUDA_* variable would still
// reach library paths that read the environment, so refuse to run instead.
const char* dcuda_env_var() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DCUDA_", 6) == 0) return *e;
  }
  return nullptr;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload W --phase P [--seed N] "
               "[--tiny] [--threads N] [--trace] [--device-backend] [--spans FILE]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (const char* var = dcuda_env_var()) {
    std::fprintf(stderr, "error: refusing to run with %s set\n", var);
    return 2;
  }
  perfbench::Options opt;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--phase") {
      opt.phase = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--threads") {
      opt.threads = std::atoi(value().c_str());
    } else if (a == "--spans") {
      spans_path = value();
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--trace") {
      opt.trace = true;
    } else if (a == "--device-backend") {
      opt.device_backend = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.workload.empty() || opt.phase.empty()) usage("--workload and --phase are required");

  perfbench::Record rec;
  perfbench::SpanLog log;
  try {
    perfbench::run_phase(opt, rec, log);
    if (!spans_path.empty()) log.write(spans_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  rec.set("peak_rss_mb", perfbench::peak_rss_mb());
  rec.note("build_type", PERFBENCH_BUILD_TYPE);
  rec.note("compiler", PERFBENCH_COMPILER);
  rec.print();
  return 0;
}

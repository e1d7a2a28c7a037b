// perfbench: the decorr benchmark's measuring program. run.py builds it and
// runs one workload per process:
//   perfbench --workload tpcd_indexed --seed 1 --seconds 10 --trace 0
// It prints one JSON document: meta, correctness counts and every metric
// with its unit. See BENCH.md for the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--spans PATH] [--smoke]\n");
    return 2;
  }
  perfbench::Report report;
  report.Meta("workload", args.workload);
  report.Meta("seed", static_cast<double>(args.seed));
  report.Meta("seconds", args.seconds);
  report.Meta("trace", args.trace ? 1 : 0);
  report.Meta("smoke", args.smoke ? 1 : 0);
  report.Meta("nproc", perfbench::HardwareThreads());
#ifdef NDEBUG
  report.Meta("build_type", "NDEBUG");
#else
  report.Meta("build_type", "debug");
#endif

  bool ran = false;
  if (args.workload == "tpcd_indexed") {
    ran = perfbench::RunTpcdIndexed(args, &report);
  } else if (args.workload == "tpcd_noindex") {
    ran = perfbench::RunTpcdNoindex(args, &report);
  } else if (args.workload == "served_small") {
    ran = perfbench::RunServedSmall(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("%s\n", report.ToJson().c_str());
  return ran ? 0 : 1;
}

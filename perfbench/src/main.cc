// perfbench: the resest benchmark harness. One run = one workload, one seed:
//
//   perfbench --workload <wire-cold|optimizer-hot|admission-mixed>
//             --seed N --seconds S --trace <0|1>
//             --server <resest_server binary> --workdir <scratch dir>
//             [--git-sha SHA] [--source-digest HEX]
//
// --trace 0 measures the end-to-end metrics; --trace 1 hosts the same stack
// in-process and measures the per-layer metrics. Either way every answer is
// checked against an in-process oracle, and the last stdout line is the
// JSON result. perfbench/run.py builds this binary and calls it.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/src/workloads.h"

using namespace perfbench;

namespace {

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--server") {
      args->server_binary = value;
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 && !args->workdir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --server PATH --workdir DIR\n");
    return 2;
  }
  if (args.workload == "optimizer-hot") {
    return args.trace ? TraceOptimizerHot(args) : RunOptimizerHot(args);
  }
  const HttpWorkload* w = FindHttpWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  return args.trace ? TraceHttpWorkload(args, *w) : RunHttpWorkload(args, *w);
}

// perfbench: the repo benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <spans.tsv>]
//
// Prints one line per metric and check, then, as the last line, the JSON
// result {"correct", "attempted", "failed", "metrics"}. Normally started
// through run.py, which builds this binary first.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.h"

namespace lapse {
namespace perfbench {
namespace {

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(opt.seconds > 0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      opt.trace = val[0] == '1';
    } else if (arg == "--trace-out") {
      opt.trace_out = val;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  for (const Workload& w : kWorkloads) {
    if (opt.workload != w.name) continue;
    const int cpus = UsableCpus();
    if (cpus < w.spinning_threads) {
      std::fprintf(stderr,
                   "perfbench: %s keeps %d threads spinning (%d nodes x %d "
                   "workers plus drain threads) but only %d CPUs are "
                   "usable; its numbers would measure the scheduler, so "
                   "the run stops here\n",
                   w.name, w.spinning_threads, w.nodes, w.workers_per_node,
                   cpus);
      return 3;
    }
    std::printf("perfbench %s: %d nodes x %d workers; %s; seed %llu, "
                "%.0f s, trace %d\n",
                w.name, w.nodes, w.workers_per_node, w.input,
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    std::fflush(stdout);
    return w.run(opt);
  }
  return Usage(("unknown workload " + opt.workload).c_str());
}

}  // namespace
}  // namespace perfbench
}  // namespace lapse

int main(int argc, char** argv) {
  return lapse::perfbench::Main(argc, argv);
}

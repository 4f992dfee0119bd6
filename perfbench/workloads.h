// The benchmark's workloads. Cluster shapes are constants, not derived
// from the host, so runs on different commits stay comparable; main.cc
// refuses to run a workload on a host with fewer CPUs than the threads it
// keeps spinning (see README.md for the measurements behind the shapes).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace lapse {
namespace perfbench {

struct Workload {
  const char* name;
  int nodes;
  int workers_per_node;
  // Worker plus server drain threads that spin while the workload runs.
  int spinning_threads;
  const char* input;
  int (*run)(const Options&);
};

// Each returns the process exit code (0 when every check passed).
int RunMfDsgd(const Options& opt);
int RunKgeRelocate(const Options& opt);
int RunZipfServe(const Options& opt);

inline constexpr Workload kWorkloads[] = {
    {"mf-dsgd", 2, 2, 4,
     "low-rank matrix 20000 x 5000, 1M cells, rank 16; DSGD with "
     "per-subepoch column-block localize",
     RunMfDsgd},
    {"kge-relocate", 2, 1, 4,
     "ComplEx dim 16, 2 negatives per side; KG of 20000 entities, 64 "
     "relations, 100k triples; data clustering + latency hiding "
     "(lookahead 2)",
     RunKgeRelocate},
    {"zipf-serve", 2, 1, 4,
     "65536 keys x 16 floats, Zipf 1.1 shared hot set; closed loop, 1 "
     "client per worker, 8 async ops + WaitAll per request, 90% lookups; "
     "adaptive + replication + coalescing",
     RunZipfServe},
};

}  // namespace perfbench
}  // namespace lapse

#endif  // PERFBENCH_WORKLOADS_H_

// allocbench_lib: the rt-handoff and sim-tiers workloads through the
// library APIs of RealThreadsAllocator (real-memory mode) and the
// simulated tcmalloc::Allocator.
//
//   allocbench_lib --workload rt-handoff --seed 1 --rounds 20 --trace 0
//   allocbench_lib --workload sim-tiers --seed 1 --summary
//
// Prints one JSON object on stdout (see run.py for how it is aggregated).

#include <cstdio>
#include <cstring>

#include "harness.h"
#include "rt_handoff.h"
#include "sim_tiers.h"

int main(int argc, char** argv) {
  using namespace allocbench;
  Args args = Args::Parse(argc, argv);
  Phases phases;
  phases.gen_start_ns = MonoNs();
  bool rt = strcmp(args.workload, "rt-handoff") == 0;
  if (!rt && strcmp(args.workload, "sim-tiers") != 0) {
    fprintf(stderr, "unknown workload %s\n", args.workload);
    return 2;
  }
  if (!args.summary) fputc('{', stdout);
  if (rt) {
    RunRtHandoff(args, &phases, stdout);
  } else {
    RunSimTiers(args, &phases, stdout);
  }
  if (!args.summary) fputs("}\n", stdout);
  return 0;
}

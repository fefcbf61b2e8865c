// Workload study: characterize a custom application's allocation behavior
// the way Section 3 of the paper characterizes the fleet — size and
// lifetime distributions, malloc tax, fragmentation, and per-tier cache
// behavior — then check how each warehouse-scale optimization affects it.
//
// Shows how a downstream user would model *their* application with a
// WorkloadSpec and use the A/B machinery to decide which allocator
// features to enable.

#include <cstdio>

#include "common/table.h"
#include "fleet/experiment.h"
#include "fleet/machine.h"
#include "workload/workload.h"

using namespace wsc;
using namespace wsc::workload;

namespace {

// An example application: an RPC server with a session cache.
// Replace the mixture components with your own measurements.
WorkloadSpec MyServerSpec() {
  WorkloadSpec spec;
  spec.name = "my-rpc-server";
  spec.behaviors = {
      // Request decode scratch: small, dies with the request.
      MakeBehavior(0.6, SizeLognormal(128, 2.0),
                   LifetimeLognormal(Microseconds(400), 3.0)),
      // Response buffers.
      MakeBehavior(0.3, SizeLognormal(8 * 1024, 1.8),
                   LifetimeLognormal(Milliseconds(5), 3.0)),
      // Session cache entries: same sizes as scratch, very different
      // lifetime (the diversity the paper highlights).
      MakeBehavior(0.1, SizeLognormal(256, 2.0),
                   LifetimeLognormal(Seconds(2), 3.0)),
  };
  spec.allocs_per_request = 15;
  spec.request_work_ns = 5000;
  spec.request_interval_ns = Milliseconds(1);
  spec.min_threads = 2;
  spec.max_threads = 16;
  spec.thread_period = Seconds(8);
  spec.startup_bytes = 100e6;  // routing tables etc.
  spec.startup_object_size = SizePoint(320);
  return spec;
}

}  // namespace

int main() {
  WorkloadSpec spec = MyServerSpec();
  hw::PlatformSpec platform =
      hw::PlatformSpecFor(hw::PlatformGeneration::kGenD);

  // --- Characterize under the baseline allocator ---
  PrintBanner("characterization: " + spec.name);
  tcmalloc::AllocatorConfig baseline;
  fleet::Machine machine(platform, {spec}, baseline, /*seed=*/2024);
  machine.Run(Seconds(20), 200000);
  const fleet::ProcessResult& r = machine.results()[0];

  std::printf("requests processed:   %llu (%.0f req/cpu-s)\n",
              static_cast<unsigned long long>(r.driver.requests),
              r.driver.Throughput());
  std::printf("malloc tax:           %.2f%% of CPU cycles\n",
              100.0 * r.driver.MallocCycleFraction());
  std::printf("avg heap / live:      %s / %s\n",
              FormatBytes(r.avg_heap_bytes).c_str(),
              FormatBytes(r.avg_live_bytes).c_str());
  std::printf("hugepage coverage:    %.1f%%\n", 100.0 * r.hugepage_coverage);
  std::printf("dTLB walk cycles:     %.2f%%\n",
              100.0 * r.DtlbWalkFraction());
  std::printf("LLC load MPKI:        %.2f\n", r.LlcMpki());

  // Object-size CDF (Fig. 7 style).
  const tcmalloc::AllocSizeCounts& sizes =
      machine.allocator(0).alloc_size_counts();
  std::printf("\nobject sizes: <1KiB = %.1f%% of objects, %.1f%% of bytes\n",
              100.0 * sizes.CountFractionBelow(1024),
              100.0 * sizes.BytesFractionBelow(1024));

  // --- Decide which optimizations pay off for this workload ---
  PrintBanner("A/B: which allocator features help this app?");
  struct Variant {
    const char* name;
    tcmalloc::AllocatorConfig config;
  };
  std::vector<Variant> variants;
  {
    tcmalloc::AllocatorConfig c;
    c.dynamic_cpu_caches = true;
    c.per_cpu_cache_bytes /= 2;
    variants.push_back({"heterogeneous caches", c});
  }
  {
    tcmalloc::AllocatorConfig c;
    c.nuca_transfer_cache = true;
    variants.push_back({"NUCA transfer cache", c});
  }
  {
    tcmalloc::AllocatorConfig c;
    c.span_prioritization = true;
    variants.push_back({"span prioritization", c});
  }
  {
    tcmalloc::AllocatorConfig c;
    c.lifetime_aware_filler = true;
    variants.push_back({"lifetime-aware filler", c});
  }
  variants.push_back({"all four",
                      tcmalloc::AllocatorConfig::AllOptimizations({})});

  TablePrinter table({"variant", "throughput", "memory", "CPI"});
  for (const Variant& v : variants) {
    fleet::AbDelta delta = fleet::RunBenchmarkAb(
        spec, platform, baseline, v.config, 2025, Seconds(20), 200000);
    table.AddRow({v.name, FormatSignedPercent(delta.ThroughputChangePct()),
                  FormatSignedPercent(delta.MemoryChangePct()),
                  FormatSignedPercent(delta.CpiChangePct())});
  }
  table.Print();
  std::printf(
      "\nuse these deltas the way the paper's fleet experiments are used:\n"
      "enable the features whose productivity gain outweighs their cost\n"
      "for your workload.\n");
  return 0;
}

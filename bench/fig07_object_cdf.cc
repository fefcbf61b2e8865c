// Fig. 7: CDF of allocated objects in WSC applications, by object count
// and by allocated memory.
//
// Paper: objects < 1 KiB are 98% of allocated objects but only 28% of
// allocated memory; objects > 8 KiB account for ~50% of memory; objects
// above the 256 KiB size-class threshold account for 22% of memory.

#include <cstdio>

#include "bench/bench_util.h"
#include "fleet/machine.h"

using namespace wsc;

int main(int argc, char** argv) {
  bench::ParseBenchFlags(argc, argv);
  PrintBanner("Fig. 7: CDF of allocated objects (count and bytes)");
  bench::BenchTimer timer("fig07_object_cdf");
  uint64_t sim_requests = 0;
  telemetry::Snapshot merged_telemetry;

  // Aggregate allocation-size counts across the production profiles,
  // weighted by their allocation volume (one machine run each).
  tcmalloc::AllocSizeCounts sizes;
  uint64_t seed = 700;
  std::vector<workload::WorkloadSpec> specs = workload::TopFiveProfiles();
  for (const auto& s : workload::BenchmarkProfiles()) specs.push_back(s);
  for (const auto& spec : specs) {
    fleet::Machine machine(
        hw::PlatformSpecFor(hw::PlatformGeneration::kGenD), {spec},
        tcmalloc::AllocatorConfig(), seed++);
    machine.Run(bench::BenchDuration(Seconds(10)),
                bench::BenchMaxRequests(50000));
    sizes.Merge(machine.allocator(0).alloc_size_counts());
    sim_requests += machine.results()[0].driver.requests;
    merged_telemetry.MergeFrom(machine.results()[0].telemetry);
  }

  std::printf("object-size CDF (upper bound -> cumulative %%):\n");
  TablePrinter table({"size <=", "% of objects", "% of memory"});
  for (size_t bound : {size_t{32}, size_t{256}, size_t{1} << 10,
                       size_t{8} << 10, size_t{64} << 10, size_t{256} << 10,
                       size_t{1} << 20, size_t{32} << 20}) {
    table.AddRow({FormatBytes(static_cast<double>(bound)),
                  FormatDouble(100.0 * sizes.CountFractionBelow(bound), 1),
                  FormatDouble(100.0 * sizes.BytesFractionBelow(bound), 1)});
  }
  table.Print();

  bench::PaperVsMeasured(
      "objects < 1 KiB, % of objects", "98%",
      FormatDouble(100.0 * sizes.CountFractionBelow(1024), 1) + "%");
  bench::PaperVsMeasured(
      "objects < 1 KiB, % of memory", "28%",
      FormatDouble(100.0 * sizes.BytesFractionBelow(1024), 1) + "%");
  bench::PaperVsMeasured(
      "objects > 8 KiB, % of memory", "~50%",
      FormatDouble(100.0 * (1.0 - sizes.BytesFractionBelow(8192)), 1) + "%");
  bench::PaperVsMeasured(
      "objects > 256 KiB (bypass caches), % of memory", "22%",
      FormatDouble(100.0 * (1.0 - sizes.BytesFractionBelow(262144)), 1) + "%");
  std::printf(
      "\nshape check: small objects dominate counts while large objects\n"
      "dominate bytes — the reason TCMalloc biases cache capacity towards\n"
      "small size classes.\n");
  timer.Report(sim_requests);
  bench::ReportTelemetry(timer.bench(), merged_telemetry);
  return 0;
}

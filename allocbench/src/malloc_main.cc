// allocbench_malloc: the shim-serve and large-churn workloads through the
// process's malloc-family symbols.
//
// The binary links libc alone. Run it under LD_PRELOAD=libwscmalloc.so to
// measure the shim, or without the preload for the glibc reference; the
// wscmalloc_* introspection exports are discovered with dlsym.
//
//   allocbench_malloc --workload shim-serve --seed 1 --rounds 20 --trace 0
//   allocbench_malloc --workload large-churn --seed 1 --summary
//
// Prints one JSON object on stdout (see run.py for how it is aggregated).

#include <dlfcn.h>
#include <malloc.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "harness.h"
#include "malloc_workloads.h"

namespace allocbench {
namespace {

// The process's own malloc family: the shim when preloaded, glibc
// otherwise.
class ProcessMalloc {
 public:
  ProcessMalloc() {
    is_active_ = reinterpret_cast<int (*)()>(
        dlsym(RTLD_DEFAULT, "wscmalloc_is_active"));
    release_ = reinterpret_cast<size_t (*)(size_t)>(
        dlsym(RTLD_DEFAULT, "wscmalloc_release_memory"));
    stats_json_ = reinterpret_cast<size_t (*)(char*, size_t)>(
        dlsym(RTLD_DEFAULT, "wscmalloc_stats_json"));
  }

  bool shim() const { return is_active_ != nullptr && is_active_() != 0; }

  void* Malloc(size_t n) { return malloc(n); }
  void Free(void* p) { free(p); }
  void* Calloc(size_t n, size_t e) { return calloc(n, e); }
  void* Realloc(void* p, size_t n) { return realloc(p, n); }
  int Memalign(void** out, size_t align, size_t n) {
    return posix_memalign(out, align, n);
  }
  size_t UsableSize(void* p) { return malloc_usable_size(p); }
  // The allocator's release entry point with no byte limit.
  size_t Release() {
    if (release_ != nullptr) return release_(SIZE_MAX);
    return static_cast<size_t>(malloc_trim(0));
  }
  bool Stats(AllocStats* out) {
    if (stats_json_ == nullptr) return false;
    char buf[1024];
    stats_json_(buf, sizeof(buf));
    *out = ParseStatsJson(buf);
    return out->valid;
  }

 private:
  int (*is_active_)() = nullptr;
  size_t (*release_)(size_t) = nullptr;
  size_t (*stats_json_)(char*, size_t) = nullptr;
};

int Run(const Args& args) {
  Phases phases;
  phases.gen_start_ns = MonoNs();
  MallocWorkload w;
  if (!GenerateMallocWorkload(args.workload, args.seed, &w)) {
    fprintf(stderr, "unknown workload %s\n", args.workload);
    return 2;
  }
  if (args.summary) {
    PrintMallocSummary(w, stdout);
    return 0;
  }
  std::unique_ptr<SpanBuffer> spans;
  if (args.trace) spans = std::make_unique<SpanBuffer>(size_t{1} << 18);
  ProcessMalloc api;
  auto driver = std::make_unique<MallocDriver<ProcessMalloc>>(
      api, w, args.trace, spans.get());
  if (args.trace) driver->CalibrateClock();
  phases.gen_end_ns = MonoNs();

  // Everything the benchmark itself allocates is allocated before the
  // first stats snapshot, so the snapshots bracket the workload alone.
  const uint64_t rounds = args.rounds ? args.rounds : w.rounds;
  RoundTimes times;
  times.Reserve(rounds);
  AllocStats before, at_end, after;
  api.Stats(&before);
  driver->WarmUp();

  phases.first_call_ns = MonoNs();
  uint64_t t = phases.first_call_ns;
  for (uint64_t r = 0; r < rounds; ++r) {
    driver->RunRound();
    uint64_t now = MonoNs();
    times.Add(now - t);
    t = now;
  }
  phases.end_ns = MonoNs();
  const uint64_t timed_calls = driver->calls();
  const size_t peak_rss = PeakRssBytes();
  api.Stats(&at_end);

  driver->FreeAll();
  driver->ReleaseAll();
  const size_t rss_after_release = CurrentRssBytes();
  api.Stats(&after);
  driver->CheckConservation(before, after);
  const Checks& checks = driver->checks();

  FILE* out = stdout;
  fprintf(out,
          "{\"workload\":\"%s\",\"allocator\":\"%s\",\"seed\":%llu,"
          "\"rounds\":%llu,\"calls\":%llu,\"attempted\":%llu,\"failed\":%llu,",
          w.name, api.shim() ? "wscmalloc" : "system",
          static_cast<unsigned long long>(args.seed),
          static_cast<unsigned long long>(rounds),
          static_cast<unsigned long long>(timed_calls),
          static_cast<unsigned long long>(rounds * w.calls_per_round),
          static_cast<unsigned long long>(checks.Total()));
  EmitPhases(out, phases);
  fprintf(out, ",\"round_calls\":%llu",
          static_cast<unsigned long long>(w.calls_per_round));
  times.Emit(out);
  fprintf(out, ",\"peak_rss_mib\":%.4f,\"rss_after_release_mib\":%.4f",
          Mib(static_cast<double>(peak_rss)),
          Mib(static_cast<double>(rss_after_release)));
  fprintf(out, ",\"checks\":");
  checks.Emit(out);
  if (args.trace) {
    fprintf(out, ",\"hists\":{");
    for (int l = 0; l < kNumShimLayers; ++l) {
      fprintf(out, "%s\"%s\":", l ? "," : "", kShimLayerNames[l]);
      driver->hist(l).Emit(out);
    }
    // Stats deltas over the run (zero on allocators without stats).
    auto d = [](double a, double b) { return Mib(a - b); };
    fprintf(out,
            "},\"values\":{\"shim.footprint_mib\":%.4f,"
            "\"shim.released_mib\":%.4f,\"shim.recommitted_mib\":%.4f,"
            "\"shim.large_pending_mib\":%.4f,\"trace.spans\":%zu,"
            "\"trace.spans_dropped\":%llu,\"trace.timer_overhead_ns\":%llu}",
            d(at_end.footprint_bytes, before.footprint_bytes),
            d(after.released_bytes, before.released_bytes),
            d(after.recommitted_bytes, before.recommitted_bytes),
            Mib(at_end.large_pending_bytes), spans->size(),
            static_cast<unsigned long long>(spans->dropped()),
            static_cast<unsigned long long>(TimerOverheadNs(driver->clock())));
    if (args.span_path != nullptr) {
      if (FILE* f = fopen(args.span_path, "w")) {
        fprintf(f, "layer,thread,start_ns,duration_ns,request\n");
        spans->WriteCsv(f, kShimLayerNames, driver->clock());
        fclose(f);
      }
    }
  }
  fprintf(out, "}\n");
  return 0;
}

}  // namespace
}  // namespace allocbench

int main(int argc, char** argv) {
  return allocbench::Run(allocbench::Args::Parse(argc, argv));
}

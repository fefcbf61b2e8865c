// Fragmentation / memory-return probe.
//
// Builds a large mixed-size population (--ops objects, default 30,000:
// about 1.6 GB, since a tenth of them are 512 KiB), frees a checkerboard
// of it (every other object — the worst case for page-level reuse), then
// asks the allocator to give memory back and reports RSS at each stage.
// Under the shim the release step calls wscmalloc_release_memory(), which
// routes to RealThreadsAllocator::ReleaseMemoryToSystem →
// madvise(MADV_DONTNEED); under glibc it calls malloc_trim(0), so the
// rss_after_release column is the interesting comparison. With --out-dir
// the shim stats sidecar gets "pre", "peak", "released" and "post"
// snapshots; everything allocated after "pre" is freed before "post", and
// "released" also records the bytes of the large blocks the checkerboard
// freed, so a check can tell the small spans the release returned apart
// from the freed large blocks.

#include <malloc.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "preload_util.h"

namespace {

// Above kMaxSmallSize (256 KiB), so these take the page-heap large path.
constexpr size_t kLargeSize = size_t{512} * 1024;

size_t PickSize(wsc_preload::Rng& rng) {
  const uint64_t r = rng.Next();
  // 90% small-class objects, 10% large. A checkerboard free leaves most
  // small spans partly live, so in wscmalloc most of what the release
  // returns comes from the freed large blocks; the rest is the small
  // spans whose objects all died.
  if (r % 100 < 90) return 64u << ((r >> 8) % 7);  // 64 B .. 4 KiB
  return kLargeSize;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wsc_preload;
  PreloadFlags flags = ParsePreloadFlags(argc, argv, /*default_ops=*/30000);
  ShimApi shim = DiscoverShim();
  AppendShimStats(flags, "frag", shim, "pre");

  const size_t population = static_cast<size_t>(flags.ops);
  size_t rss_peak, rss_after_free, rss_after_release;
  size_t released = 0;
  size_t freed_large_bytes = 0;  // of the checkerboard's frees
  {
    std::vector<void*> objs(population, nullptr);
    Rng rng(flags.seed);
    for (size_t i = 0; i < population; ++i) {
      const size_t size = PickSize(rng);
      objs[i] = std::malloc(size);
      if (objs[i] == nullptr) std::abort();
      std::memset(objs[i], 0xEE, size);  // fault everything in
      if (i % 2 == 0 && size == kLargeSize) freed_large_bytes += size;
    }
    rss_peak = ReadRssBytes();
    AppendShimStats(flags, "frag", shim, "peak");

    // Checkerboard free: half the bytes die but nearly every page stays
    // partially live — the fragmentation regime of Figure 5.
    for (size_t i = 0; i < population; i += 2) {
      std::free(objs[i]);
      objs[i] = nullptr;
    }
    rss_after_free = ReadRssBytes();

    if (shim.active() && shim.release_memory != nullptr) {
      released = shim.release_memory(~size_t{0});
    } else {
      malloc_trim(0);
    }
    rss_after_release = ReadRssBytes();
    char extra[64];  // on the stack: the snapshot must not allocate
    std::snprintf(extra, sizeof(extra), "\"freed_large_bytes\":%zu",
                  freed_large_bytes);
    AppendShimStats(flags, "frag", shim, "released", extra);

    for (size_t i = 1; i < population; i += 2) std::free(objs[i]);
  }

  AppendShimStats(flags, "frag", shim, "post");

  char line[512];
  std::snprintf(
      line, sizeof(line),
      "{\"bench\":\"frag\",\"allocator\":\"%s\",\"population\":%zu,"
      "\"rss_peak\":%zu,\"rss_after_free\":%zu,\"rss_after_release\":%zu,"
      "\"released_bytes\":%zu}",
      AllocatorName(shim), population, rss_peak, rss_after_free,
      rss_after_release, released);
  EmitReport(flags, "frag", line);
  return 0;
}

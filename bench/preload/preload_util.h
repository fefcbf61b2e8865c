// Shared harness for the LD_PRELOAD head-to-head benches.
//
// Unlike bench/bench_util.h, this header is deliberately self-contained:
// the preload benches must NOT link any wsc library, because the point is
// to run the *same binary* twice —
//
//   ./bench_mt --threads=8                       # glibc malloc
//   LD_PRELOAD=.../libwscmalloc.so ./bench_mt --threads=8
//
// — and attribute every difference to the interposed allocator. The only
// permitted dependencies are libc, libdl (to discover the wscmalloc_*
// introspection exports when the shim is preloaded) and pthreads.
//
// Flags (a subset of the bench_util.h conventions):
//   --threads=N     worker thread count (default 4)
//   --ops=N         operations per thread (default 1'000'000; a bench may
//                   pick its own default)
//   --seed=N        deterministic PRNG seed (default 1)
//   --out-dir=DIR   write DIR/<bench>.json (the harness report) and, when
//                   the shim is active, DIR/<bench>.stats.json with the
//                   pre/post wscmalloc_stats_json() snapshots. Same DIR
//                   convention as bench_util.h --out-dir.
//
// Every bench prints a one-line JSON report to stdout:
//   {"bench":"mt","allocator":"wscmalloc"|"system",...,"ns_per_op":...}
#ifndef WSC_BENCH_PRELOAD_PRELOAD_UTIL_H_
#define WSC_BENCH_PRELOAD_PRELOAD_UTIL_H_

#include <dlfcn.h>
#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

namespace wsc_preload {

// ---------------------------------------------------------------------------
// Shim discovery. All pointers are null when running on plain glibc.
// ---------------------------------------------------------------------------

struct ShimApi {
  int (*is_active)() = nullptr;
  const char* (*backend)() = nullptr;
  size_t (*release_memory)(size_t) = nullptr;
  size_t (*stats_json)(char*, size_t) = nullptr;

  bool active() const { return is_active != nullptr && is_active() != 0; }
};

inline ShimApi DiscoverShim() {
  ShimApi api;
  // RTLD_DEFAULT scans the global scope, so this finds the symbols iff
  // libwscmalloc.so was preloaded — no dlopen, no hard dependency.
  api.is_active = reinterpret_cast<int (*)()>(
      dlsym(RTLD_DEFAULT, "wscmalloc_is_active"));
  api.backend = reinterpret_cast<const char* (*)()>(
      dlsym(RTLD_DEFAULT, "wscmalloc_backend"));
  api.release_memory = reinterpret_cast<size_t (*)(size_t)>(
      dlsym(RTLD_DEFAULT, "wscmalloc_release_memory"));
  api.stats_json = reinterpret_cast<size_t (*)(char*, size_t)>(
      dlsym(RTLD_DEFAULT, "wscmalloc_stats_json"));
  return api;
}

inline const char* AllocatorName(const ShimApi& api) {
  return api.active() ? "wscmalloc" : "system";
}

// ---------------------------------------------------------------------------
// Flags.
// ---------------------------------------------------------------------------

struct PreloadFlags {
  int threads = 4;
  uint64_t ops = 1000000;
  uint64_t seed = 1;
  std::string out_dir;
};

inline PreloadFlags ParsePreloadFlags(int argc, char** argv,
                                      uint64_t default_ops = 1000000) {
  PreloadFlags f;
  f.ops = default_ops;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--threads=", 10) == 0) {
      f.threads = std::atoi(a + 10);
    } else if (std::strncmp(a, "--ops=", 6) == 0) {
      f.ops = std::strtoull(a + 6, nullptr, 10);
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      f.seed = std::strtoull(a + 7, nullptr, 10);
    } else if (std::strncmp(a, "--out-dir=", 10) == 0) {
      f.out_dir = a + 10;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      std::exit(2);
    }
  }
  if (f.threads < 1) f.threads = 1;
  if (!f.out_dir.empty()) {
    // mkdir -p
    std::string path;
    for (size_t i = 0; i <= f.out_dir.size(); ++i) {
      if (i == f.out_dir.size() || f.out_dir[i] == '/') {
        if (!path.empty()) ::mkdir(path.c_str(), 0755);
      }
      if (i < f.out_dir.size()) path += f.out_dir[i];
    }
  }
  return f;
}

// ---------------------------------------------------------------------------
// Timing, PRNG, RSS.
// ---------------------------------------------------------------------------

inline uint64_t NowNanos() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// splitmix64 — tiny, seedable, and identical across both allocator runs.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed) {}
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

// VmRSS in bytes from /proc/self/status; 0 if unreadable.
inline size_t ReadRssBytes() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t rss_kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      rss_kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return rss_kb * 1024;
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

// Writes `json_line` to stdout and, with --out-dir, to DIR/<bench>.json.
// When the shim is active also captures wscmalloc_stats_json() into
// DIR/<bench>.stats.json tagged with `phase` ("pre"/"post") lines that
// accumulated during the run via AppendShimStats below.
inline void EmitReport(const PreloadFlags& flags, const char* bench,
                       const std::string& json_line) {
  std::fputs(json_line.c_str(), stdout);
  std::fputc('\n', stdout);
  if (flags.out_dir.empty()) return;
  const std::string path = flags.out_dir + "/" + bench + ".json";
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(json_line.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
}

// Appends one {"phase":...,<extra>,"stats":<shim stats>} line to
// DIR/<bench>.stats.json; `extra` is empty or JSON members of the bench's
// own ("\"key\":value"). No-op on glibc or without --out-dir. CI diffs
// the pre/post snapshots to assert the allocation/free delta balances
// (and, for bench_frag, that the release shrinks the footprint by more
// than the large blocks it freed).
inline void AppendShimStats(const PreloadFlags& flags, const char* bench,
                            const ShimApi& api, const char* phase,
                            const char* extra = "") {
  if (!api.active() || api.stats_json == nullptr || flags.out_dir.empty()) {
    return;
  }
  char buf[2048];
  const size_t n = api.stats_json(buf, sizeof(buf));
  if (n == 0 || n >= sizeof(buf)) return;
  const std::string path = flags.out_dir + "/" + bench + ".stats.json";
  if (FILE* f = std::fopen(path.c_str(), "a")) {
    std::fprintf(f, "{\"phase\":\"%s\",%s%s\"stats\":%s}\n", phase,
                 extra, *extra == '\0' ? "" : ",", buf);
    std::fclose(f);
  }
}

}  // namespace wsc_preload

#endif  // WSC_BENCH_PRELOAD_PRELOAD_UTIL_H_

// The benchmark's checks must catch faults. Each case runs a checker
// against a deliberately broken stand-in allocator and expects exactly
// that check, and no other, to count failures; the malloc-family
// workloads must count none on glibc.
//
//   ctest --test-dir .bench_build/allocbench

#include <malloc.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "harness.h"
#include "malloc_workloads.h"
#include "rt_handoff.h"
#include "sim_tiers.h"

namespace allocbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    fprintf(stderr, "FAILED: %s\n", what);
  }
}

// Exactly `check` counted failures; every other check counted none.
void ExpectOnly(const Checks& checks, int check, const char* name) {
  for (int c = 0; c < kNumChecks; ++c) {
    bool ok = c == check ? checks.failed[c] > 0 : checks.failed[c] == 0;
    if (!ok) {
      ++g_failures;
      fprintf(stderr, "FAILED: %s: check %s counted %llu\n", name,
              CheckName(c), static_cast<unsigned long long>(checks.failed[c]));
    }
  }
}

void ExpectNone(const Checks& checks, const char* name) {
  ExpectOnly(checks, kNumChecks, name);
}

// glibc, with the allocator's own counters kept by the stand-in so the
// conservation check has something to read.
class Glibc {
 public:
  void* Malloc(size_t n) { return Count(malloc(n)); }
  void Free(void* p) {
    if (p != nullptr) ++frees_;
    free(p);
  }
  void* Calloc(size_t n, size_t e) { return Count(calloc(n, e)); }
  void* Realloc(void* p, size_t n) {
    void* q = realloc(p, n);
    if (q != nullptr && q != p) {
      ++allocations_;
      if (p != nullptr) ++frees_;
    }
    return q;
  }
  int Memalign(void** out, size_t align, size_t n) {
    int rc = posix_memalign(out, align, n);
    if (rc == 0) ++allocations_;
    return rc;
  }
  size_t UsableSize(void* p) { return malloc_usable_size(p); }
  size_t Release() { return static_cast<size_t>(malloc_trim(0)); }
  bool Stats(AllocStats* out) {
    out->valid = true;
    out->allocations = static_cast<double>(allocations_);
    out->frees = static_cast<double>(frees_);
    out->live_bytes = 0;
    return true;
  }

 protected:
  void* Count(void* p) {
    if (p != nullptr) ++allocations_;
    return p;
  }
  uint64_t allocations_ = 0;
  uint64_t frees_ = 0;
};

// calloc hands back one non-zero byte.
class DirtyCalloc : public Glibc {
 public:
  void* Calloc(size_t n, size_t e) {
    unsigned char* p = static_cast<unsigned char*>(Glibc::Calloc(n, e));
    if (p != nullptr && n * e > 1) p[n * e / 2] = 0x5a;
    return p;
  }
};

// realloc moves the block without copying the old contents.
class ForgetfulRealloc : public Glibc {
 public:
  void* Realloc(void* p, size_t n) {
    void* q = Glibc::Malloc(n);
    if (q == nullptr) return nullptr;
    memset(q, 0xab, n);
    Glibc::Free(p);
    return q;
  }
};

// posix_memalign returns a block 8 bytes past the requested alignment.
class MisalignedMemalign : public Glibc {
 public:
  int Memalign(void** out, size_t align, size_t n) {
    void* base = nullptr;
    int rc = Glibc::Memalign(&base, align, n + align + 8);
    if (rc != 0) return rc;
    char* p = static_cast<char*>(base) + 8;
    shifted_[p] = {base, n};
    *out = p;
    return 0;
  }
  void Free(void* p) {
    auto it = shifted_.find(p);
    if (it == shifted_.end()) return Glibc::Free(p);
    void* base = it->second.first;
    shifted_.erase(it);
    Glibc::Free(base);
  }
  size_t UsableSize(void* p) {
    auto it = shifted_.find(p);
    return it == shifted_.end() ? Glibc::UsableSize(p) : it->second.second;
  }
  void* Realloc(void* p, size_t n) {
    auto it = shifted_.find(p);
    if (it == shifted_.end()) return Glibc::Realloc(p, n);
    void* q = Glibc::Malloc(n);
    if (q == nullptr) return nullptr;
    memcpy(q, p, it->second.second < n ? it->second.second : n);
    Free(p);
    return q;
  }

 private:
  std::map<void*, std::pair<void*, size_t>> shifted_;
};

// The allocator's own counters miss one free.
class MiscountedFrees : public Glibc {
 public:
  bool Stats(AllocStats* out) {
    Glibc::Stats(out);
    if (frees_ > 0) out->frees -= 1;
    return true;
  }
};

// Runs `rounds` rounds of a malloc-family workload and the end-of-run
// conservation check; returns the checks.
template <class Api>
Checks RunMalloc(const char* workload, int rounds) {
  MallocWorkload w;
  GenerateMallocWorkload(workload, 7, &w);
  Api api;
  MallocDriver<Api> driver(api, w, /*traced=*/false, nullptr);
  AllocStats before, after;
  api.Stats(&before);
  driver.WarmUp();
  for (int r = 0; r < rounds; ++r) driver.RunRound();
  driver.FreeAll();
  driver.ReleaseAll();
  api.Stats(&after);
  driver.CheckConservation(before, after);
  return driver.checks();
}

void MallocFamilyCases() {
  ExpectNone(RunMalloc<Glibc>("shim-serve", 4), "shim-serve on glibc");
  ExpectNone(RunMalloc<Glibc>("large-churn", 4), "large-churn on glibc");
  ExpectOnly(RunMalloc<DirtyCalloc>("shim-serve", 2), kCallocZero,
             "calloc with a non-zero byte");
  ExpectOnly(RunMalloc<ForgetfulRealloc>("shim-serve", 2), kReallocPrefix,
             "realloc that drops the prefix");
  ExpectOnly(RunMalloc<MisalignedMemalign>("shim-serve", 2), kMemalignAlign,
             "misaligned posix_memalign");
  ExpectOnly(RunMalloc<MiscountedFrees>("shim-serve", 2), kConservation,
             "allocations/frees mismatch");
}

// A bump allocator over a fake address range that, once, hands out a
// block starting inside the previous one.
class OverlappingBump {
 public:
  uintptr_t Allocate(size_t size) {
    uintptr_t p = next_;
    if (++calls_ == 100) p -= 8;
    next_ = p + ((size + 15) & ~size_t{15});
    return p;
  }

 private:
  uintptr_t next_ = uintptr_t{1} << 40;
  int calls_ = 0;
};

void LiveSetCases() {
  for (bool broken : {false, true}) {
    OverlappingBump bump;
    std::vector<std::pair<uintptr_t, size_t>> live;
    for (int i = 0; i < 200; ++i) {
      size_t size = 16 + static_cast<size_t>(i % 7) * 24;
      uintptr_t p = broken ? bump.Allocate(size)
                           : (uintptr_t{1} << 40) + static_cast<uintptr_t>(i) * 4096;
      live.push_back({p, size});
    }
    Checks checks;
    CheckLiveSet(live, 200, 0, checks);
    if (broken) {
      ExpectOnly(checks, kOverlap, "overlapping block");
    } else {
      ExpectNone(checks, "disjoint live set");
    }
  }
}

// Tier counters from a real simulated run, then one allocation dropped
// from the per-CPU cache count.
void TierCases() {
  SimWorkload w = GenerateSimTiers(5);
  SpanBuffer spans(1);
  SimTiers sim(w, /*traced=*/false, &spans);
  sim.WarmUp();
  sim.RunRound();
  Allocator& alloc = sim.alloc();
  TierHitCounts hits = alloc.alloc_tier_hits();
  Checks good;
  CheckTierCounts(hits, alloc.num_allocations(), good);
  ExpectNone(good, "simulated tier counts");
  ExpectNone(sim.checks(), "sim-tiers round");
  hits.cpu_cache -= 1;
  Checks broken;
  CheckTierCounts(hits, alloc.num_allocations(), broken);
  ExpectOnly(broken, kTierSum, "tier-hit sum off by one");
  sim.Drain();
  ExpectNone(sim.checks(), "sim-tiers drain");
}

void QuiescentCases() {
  RtQuiescentState ok{1000, 1000, 0, 64, 64};
  Checks good;
  CheckRtQuiescent(ok, good);
  ExpectNone(good, "quiescent real-threads state");
  RtQuiescentState leak = ok;
  leak.frees = 999;
  Checks broken;
  CheckRtQuiescent(leak, broken);
  ExpectOnly(broken, kConservation, "real-threads allocations/frees mismatch");
}

// The real-memory RealThreadsAllocator, two workers for a short run: no
// check counts a failure.
void RtHandoffCase() {
  RtWorkload w = GenerateRtHandoff(3, 2);
  RtHandoff bench(w, /*traced=*/false);
  Phases phases;
  bench.Run(2, &phases);
  Checks checks;
  for (int i = 0; i < bench.threads(); ++i) checks.Merge(bench.worker(i).checks);
  Expect(phases.end_ns > phases.first_call_ns, "rt-handoff ran");
  ExpectNone(checks, "rt-handoff");
}

}  // namespace
}  // namespace allocbench

int main() {
  allocbench::MallocFamilyCases();
  allocbench::LiveSetCases();
  allocbench::TierCases();
  allocbench::QuiescentCases();
  allocbench::RtHandoffCase();
  if (allocbench::g_failures == 0) printf("allocbench checks: all cases passed\n");
  return allocbench::g_failures == 0 ? 0 : 1;
}

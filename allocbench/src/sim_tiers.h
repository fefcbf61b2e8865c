// sim-tiers: the simulated tcmalloc::Allocator with the paper's four
// optimisations on, 16 vCPUs over 2 LLC domains, replaying a
// seed-generated op stream on the simulated clock.
//
// A round is a cyclic schedule: every object is allocated once and freed
// once per round; long-lived objects allocated late in a round are freed
// early in the next, so warm-up allocates exactly those and the live set
// starts at its steady size. Sizes are paper-like, lifetimes come from
// two populations, a share of frees runs on another vCPU, and Maintain
// runs every 10 simulated milliseconds. The simulator is deterministic, so
// the tier counts over warm-up and the first kCountedRounds timed rounds
// repeat exactly for a given seed.

#ifndef ALLOCBENCH_SIM_TIERS_H_
#define ALLOCBENCH_SIM_TIERS_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "harness.h"
#include "malloc_workloads.h"
#include "tcmalloc/allocator.h"
#include "tcmalloc/config.h"
#include "telemetry/registry.h"

namespace allocbench {

using wsc::tcmalloc::Allocator;
using wsc::tcmalloc::TierHitCounts;

inline constexpr int kSimVcpus = 16;
inline constexpr int kSimDomains = 2;
inline constexpr uint64_t kSimNsPerEvent = 10000;  // 10 us of simulated time
inline constexpr uint64_t kSimEventsPerMaintain = 1000;
inline constexpr uint64_t kCountedRounds = 8;
inline constexpr uint64_t kRoundsPerProcess = 400;  // about 1.3 s on 4 vCPUs

struct SimEvent {
  uint32_t object;
  uint8_t is_free;
};

struct SimWorkload {
  uint64_t seed = 0;
  std::vector<uint32_t> size;       // per object
  std::vector<uint8_t> alloc_vcpu;  // per object
  std::vector<uint8_t> free_vcpu;   // per object
  std::vector<uint32_t> carried;    // live across the round boundary
  std::vector<SimEvent> round;
  double cross_vcpu_share = 0;
};

inline SimWorkload GenerateSimTiers(uint64_t seed) {
  constexpr uint32_t kObjects = 16384;
  constexpr uint32_t kSlots = 2 * kObjects;  // events per round
  SimWorkload w;
  w.seed = seed;
  Rng rng(Mix64(seed ^ 0x517e5));
  UnitDeck sizes(Mix64(seed ^ 0x512e5), kObjects);
  UnitDeck lives(Mix64(seed ^ 0x11fe5), kObjects);
  std::vector<std::pair<uint64_t, SimEvent>> timed;
  timed.reserve(2 * kObjects);
  uint32_t cross = 0;
  for (uint32_t o = 0; o < kObjects; ++o) {
    // 0.3% of objects are large (256 KiB to 2 MiB); the rest follow the
    // paper-like mix.
    double su = sizes.Next();
    uint32_t size =
        su >= 0.997 ? static_cast<uint32_t>(LogUniformAt(
                          (su - 0.997) / 0.003, kMaxSmallRequest + 1, 2u << 20))
                    : PaperSizeAt(su / 0.997);
    uint8_t av = static_cast<uint8_t>(rng.Below(kSimVcpus));
    uint8_t fv = av;
    if (rng.Chance(0.2)) {
      fv = static_cast<uint8_t>((av + 1 + rng.Below(kSimVcpus - 1)) %
                                kSimVcpus);
      ++cross;
    }
    // Two lifetime populations: most objects die within a few dozen
    // events, the rest live up to a whole round.
    double lu = lives.Next();
    uint64_t life =
        lu < 0.75 ? 1 + static_cast<uint64_t>(lu / 0.75 * 64)
                  : kSlots / 16 + static_cast<uint64_t>(
                                      (lu - 0.75) / 0.25 * (kSlots - kSlots / 16 - 1));
    uint64_t at = rng.Below(kSlots);
    uint64_t free_at = at + life;
    if (free_at >= kSlots) {
      free_at -= kSlots;
      w.carried.push_back(o);
    }
    w.size.push_back(size);
    w.alloc_vcpu.push_back(av);
    w.free_vcpu.push_back(fv);
    // Sort key: position, then frees before allocations at one position.
    timed.push_back({(at << 1) | 1, SimEvent{o, 0}});
    timed.push_back({free_at << 1, SimEvent{o, 1}});
  }
  std::sort(timed.begin(), timed.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first
                                        : a.second.object < b.second.object;
            });
  for (const auto& t : timed) w.round.push_back(t.second);
  w.cross_vcpu_share = static_cast<double>(cross) / kObjects;
  return w;
}

inline void PrintSimSummary(const SimWorkload& w, FILE* out) {
  uint64_t under_1k = 0;
  double bytes = 0, above_8k = 0, above_256k = 0, live = 0;
  for (uint32_t s : w.size) {
    bytes += s;
    if (s < 1024) ++under_1k;
    if (s > 8192) above_8k += s;
    if (s > kMaxSmallRequest) above_256k += s;
  }
  for (uint32_t o : w.carried) live += w.size[o];
  fprintf(out,
          "{\"workload\":\"sim-tiers\",\"seed\":%llu,\"calls_per_round\":%zu,"
          "\"share_blocks_under_1k\":%.4f,\"share_bytes_above_8k\":%.4f,"
          "\"share_bytes_above_256k\":%.4f,\"live_set_mib\":%.2f,"
          "\"live_objects\":%zu,\"cross_thread_free_share\":%.4f,"
          "\"vcpus\":%d,\"llc_domains\":%d}\n",
          static_cast<unsigned long long>(w.seed), w.round.size(),
          w.size.empty() ? 0.0 : static_cast<double>(under_1k) / w.size.size(),
          bytes > 0 ? above_8k / bytes : 0.0,
          bytes > 0 ? above_256k / bytes : 0.0, Mib(live), w.carried.size(),
          w.cross_vcpu_share, kSimVcpus, kSimDomains);
}

// The four exclusive tier counters sum to the allocations, and mmap
// growth is a subset of page-heap hits.
inline void CheckTierCounts(const TierHitCounts& h, uint64_t allocations,
                            Checks& checks) {
  checks.Expect(h.cpu_cache + h.transfer_cache + h.central_free_list +
                        h.page_heap ==
                    allocations,
                kTierSum);
  checks.Expect(h.mmap <= h.page_heap, kMmapSubset);
}

// The benchmark's live set: no two blocks overlap by address, and its
// size is allocations minus frees.
inline void CheckLiveSet(std::vector<std::pair<uintptr_t, size_t>>& live,
                         uint64_t allocations, uint64_t frees,
                         Checks& checks) {
  checks.Expect(live.size() == allocations - frees, kLiveCount);
  std::sort(live.begin(), live.end());
  bool disjoint = true;
  for (size_t i = 1; i < live.size(); ++i) {
    if (live[i - 1].first + live[i - 1].second > live[i].first) {
      disjoint = false;
    }
  }
  checks.Expect(disjoint, kOverlap);
}

// Timed rows of the simulated tiers.
enum SimLayer : int {
  kCpuCacheAlloc,
  kTransferAlloc,
  kCflAlloc,
  kPageHeapAlloc,
  kMmapAlloc,  // subset of page-heap allocations that grew the arena
  kSimFree,
  kMaintainRow,
  kNumSimLayers,
};

inline const char* const kSimLayerNames[kNumSimLayers] = {
    "per_cpu_cache.alloc", "transfer_cache.alloc",
    "central_free_list.alloc", "page_heap.alloc",
    "system_alloc.mmap_alloc", "allocator.free", "background.maintain"};

class SimTiers {
 public:
  SimTiers(const SimWorkload& w, bool traced, SpanBuffer* spans)
      : w_(w),
        traced_(traced),
        spans_(spans),
        alloc_(wsc::tcmalloc::AllocatorConfig::Builder()
                   .WithVcpus(kSimVcpus)
                   .WithAllOptimizations()
                   .WithLlcDomains(kSimDomains)
                   .Build()),
        addr_(w.size.size(), 0) {
    for (int v = 0; v < kSimVcpus; ++v) {
      alloc_.SetVcpuDomain(v, v * kSimDomains / kSimVcpus);
    }
    if (traced_) clock_.Calibrate();
  }

  template <class F>
  auto Timed(uint32_t layer, uint64_t request, F&& call) {
    if (!traced_) return call();
    uint64_t t0 = Ticks();
    auto result = call();
    uint64_t t1 = Ticks();
    hists_[layer].Add(clock_.ToNs(t1 - t0));
    spans_->Add(layer, 0, t0, t1, request);
    return result;
  }

  // Allocates the objects that are live at a round boundary, then runs
  // one untimed round so the caches fill.
  void WarmUp() {
    for (uint32_t o : w_.carried) AllocObject(o, 0);
    RunRound();
    Checkpoint();
    // The traced rows cover the timed rounds only.
    for (LatencyHist& h : hists_) h = LatencyHist();
    if (traced_) spans_->Clear();
  }

  void RunRound() {
    ++round_;
    uint64_t request = round_ << 20;
    for (const SimEvent& e : w_.round) {
      if (e.is_free) {
        FreeObject(e.object, request);
      } else {
        AllocObject(e.object, request);
      }
      now_ += kSimNsPerEvent;
      if (++events_ % kSimEventsPerMaintain == 0) {
        Timed(kMaintainRow, request, [&] {
          alloc_.Maintain(now_);
          return 0;
        });
        ++request;
      }
    }
  }

  // Frees every live object; the simulator's stats must then read zero.
  // A last Maintain, a round's worth of simulated time later, runs the
  // simulator's release path on the drained heap.
  void Drain() {
    for (uint32_t o = 0; o < addr_.size(); ++o) {
      if (addr_[o] != 0) FreeObject(o, 0);
    }
    wsc::tcmalloc::HeapStats stats = alloc_.CollectStats();
    checks_.Expect(stats.live_bytes == 0 && stats.requested_bytes == 0,
                   kDrainZero);
    now_ += kSimNsPerEvent * w_.round.size();
    alloc_.Maintain(now_);
  }

  // The benchmark's live set at a round boundary: no two blocks overlap,
  // and its size is allocations minus frees. Run between rounds, off the
  // clock.
  void Checkpoint() {
    live_set_.clear();
    for (uint32_t o = 0; o < addr_.size(); ++o) {
      if (addr_[o] != 0) live_set_.push_back({addr_[o], w_.size[o]});
    }
    CheckLiveSet(live_set_, alloc_.num_allocations(), alloc_.num_frees(),
                 checks_);
  }

  Allocator& alloc() { return alloc_; }
  Checks& checks() { return checks_; }
  const LatencyHist& hist(int l) const { return hists_[l]; }
  const TickClock& clock() const { return clock_; }
  uint64_t calls() const { return allocs_ + frees_; }
  void ResetCalls() { allocs_ = frees_ = 0; }

 private:
  void AllocObject(uint32_t o, uint64_t request) {
    ++allocs_;
    if (!traced_) {
      addr_[o] = alloc_.Allocate(w_.size[o], w_.alloc_vcpu[o], now_);
    } else {
      TierHitCounts before = alloc_.alloc_tier_hits();
      uint64_t t0 = Ticks();
      addr_[o] = alloc_.Allocate(w_.size[o], w_.alloc_vcpu[o], now_);
      uint64_t t1 = Ticks();
      const TierHitCounts& after = alloc_.alloc_tier_hits();
      uint32_t layer = after.cpu_cache != before.cpu_cache ? kCpuCacheAlloc
                       : after.transfer_cache != before.transfer_cache
                           ? kTransferAlloc
                       : after.central_free_list != before.central_free_list
                           ? kCflAlloc
                           : kPageHeapAlloc;
      uint64_t ns = clock_.ToNs(t1 - t0);
      hists_[layer].Add(ns);
      if (after.mmap != before.mmap) hists_[kMmapAlloc].Add(ns);
      spans_->Add(layer, 0, t0, t1, request);
    }
    checks_.Expect(addr_[o] != 0, kNonNull);
  }

  void FreeObject(uint32_t o, uint64_t request) {
    uintptr_t a = addr_[o];
    if (a == 0) return;  // its allocation failed (counted there)
    ++frees_;
    Timed(kSimFree, request, [&] {
      alloc_.Free(a, w_.free_vcpu[o], now_);
      return 0;
    });
    addr_[o] = 0;
  }

  const SimWorkload& w_;
  const bool traced_;
  SpanBuffer* spans_;
  Allocator alloc_;
  std::vector<uintptr_t> addr_;
  std::vector<std::pair<uintptr_t, size_t>> live_set_;
  Checks checks_;
  LatencyHist hists_[kNumSimLayers];
  TickClock clock_;
  uint64_t now_ = 0;
  uint64_t events_ = 0;
  uint64_t round_ = 0;
  uint64_t allocs_ = 0;
  uint64_t frees_ = 0;
};

// Runs sim-tiers and writes its report object body (no braces).
inline void RunSimTiers(const Args& args, Phases* phases, FILE* out) {
  SimWorkload w = GenerateSimTiers(args.seed);
  if (args.summary) {
    PrintSimSummary(w, out);
    return;
  }
  std::unique_ptr<SpanBuffer> spans;
  if (args.trace) spans.reset(new SpanBuffer(size_t{1} << 18));
  phases->gen_end_ns = MonoNs();

  auto sim = std::make_unique<SimTiers>(w, args.trace, spans.get());
  Allocator& alloc = sim->alloc();
  sim->WarmUp();
  sim->ResetCalls();

  const uint64_t rounds =
      std::max(args.rounds ? args.rounds : kRoundsPerProcess, kCountedRounds);
  TierHitCounts counted_hits;
  wsc::telemetry::Snapshot counted;
  double simulated_ns_per_op = 0;
  uint64_t off_clock_ns = 0;
  RoundTimes times;
  times.Reserve(rounds);
  phases->first_call_ns = MonoNs();
  for (uint64_t r = 1; r <= rounds; ++r) {
    uint64_t t0 = MonoNs();
    sim->RunRound();
    uint64_t t1 = MonoNs();
    times.Add(t1 - t0);
    sim->Checkpoint();
    if (r == kCountedRounds) {
      // The exact counts: cumulative over warm-up and the first
      // kCountedRounds rounds, identical for a given seed. Like the
      // checkpoint, the snapshot is taken off the clock.
      counted_hits = alloc.alloc_tier_hits();
      CheckTierCounts(counted_hits, alloc.num_allocations(), sim->checks());
      counted = alloc.TelemetrySnapshot();
      simulated_ns_per_op =
          alloc.cycle_breakdown().Total() /
          static_cast<double>(alloc.num_allocations() + alloc.num_frees());
    }
    off_clock_ns += MonoNs() - t1;
  }
  phases->end_ns = MonoNs() - off_clock_ns;
  const uint64_t timed_calls = sim->calls();
  sim->Drain();
  const size_t peak_rss = PeakRssBytes();
  // The simulator's host memory once its heap is drained and released;
  // the simulator is still alive, so this is what it keeps.
  const size_t rss_after_release = CurrentRssBytes();
  const Checks& checks = sim->checks();
  const TickClock& clock = sim->clock();

  fprintf(out,
          "\"workload\":\"sim-tiers\",\"allocator\":\"simulated\","
          "\"seed\":%llu,\"rounds\":%llu,\"calls\":%llu,\"attempted\":%llu,"
          "\"failed\":%llu,",
          static_cast<unsigned long long>(args.seed),
          static_cast<unsigned long long>(rounds),
          static_cast<unsigned long long>(timed_calls),
          static_cast<unsigned long long>(timed_calls),
          static_cast<unsigned long long>(checks.Total()));
  EmitPhases(out, *phases);
  fprintf(out, ",\"round_calls\":%llu",
          static_cast<unsigned long long>(timed_calls / rounds));
  times.Emit(out);
  fprintf(out, ",\"peak_rss_mib\":%.4f,\"rss_after_release_mib\":%.4f",
          Mib(static_cast<double>(peak_rss)),
          Mib(static_cast<double>(rss_after_release)));
  fprintf(out, ",\"checks\":");
  checks.Emit(out);
  auto c = [&counted](const char* comp, const char* name) {
    const wsc::telemetry::MetricSample* s = counted.Find(comp, name);
    return s != nullptr ? s->ScalarValue() : 0.0;
  };
  fprintf(out,
          ",\"counts\":{\"per_cpu_cache.hits\":%llu,"
          "\"transfer_cache.hits\":%llu,\"central_free_list.hits\":%llu,"
          "\"page_heap.hits\":%llu,\"system_alloc.mmap_calls\":%.0f,"
          "\"per_cpu_cache.underflows\":%.0f,"
          "\"per_cpu_cache.overflows\":%.0f,"
          "\"central_free_list.returned_spans\":%.0f,"
          "\"huge_page_filler.subrelease_events\":%.0f,"
          "\"allocator.simulated_ns_per_op\":%.6f}",
          static_cast<unsigned long long>(counted_hits.cpu_cache),
          static_cast<unsigned long long>(counted_hits.transfer_cache),
          static_cast<unsigned long long>(counted_hits.central_free_list),
          static_cast<unsigned long long>(counted_hits.page_heap),
          c("system", "mmap_calls"), c("cpu_cache", "underflows"),
          c("cpu_cache", "overflows"),
          c("central_free_list", "returned_spans"),
          c("huge_page_filler", "subrelease_events"), simulated_ns_per_op);
  if (!args.trace) return;
  fprintf(out, ",\"hists\":{");
  for (int l = 0; l < kNumSimLayers; ++l) {
    fprintf(out, "%s\"%s\":", l ? "," : "", kSimLayerNames[l]);
    sim->hist(l).Emit(out);
  }
  fprintf(out, "},\"values\":{\"trace.spans\":%zu,\"trace.spans_dropped\":%llu,\"trace.timer_overhead_ns\":%llu}",
          spans->size(), static_cast<unsigned long long>(spans->dropped()),
          static_cast<unsigned long long>(TimerOverheadNs(clock)));
  if (args.span_path != nullptr) {
    if (FILE* f = fopen(args.span_path, "w")) {
      fprintf(f, "layer,thread,start_ns,duration_ns,request\n");
      spans->WriteCsv(f, kSimLayerNames, clock);
      fclose(f);
    }
  }
}

}  // namespace allocbench

#endif  // ALLOCBENCH_SIM_TIERS_H_

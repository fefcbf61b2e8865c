// rt-handoff: one worker per core shares one real-memory
// RealThreadsAllocator through its library API.
//
// Each worker replays its own seed-generated size stream in rounds. It
// keeps a rotating window of live blocks (freeing the oldest as it
// allocates), hands one block in 16 to the next worker, which frees it,
// and flushes its thread cache at the end of every round. Transfer
// shards, CFL shards, work stealing, span carving and lock traffic do
// the work; the large path and the shim stay idle.

#ifndef ALLOCBENCH_RT_HANDOFF_H_
#define ALLOCBENCH_RT_HANDOFF_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "harness.h"
#include "malloc_workloads.h"
#include "tcmalloc/config.h"
#include "tcmalloc/pages.h"
#include "tcmalloc/real_threads.h"
#include "telemetry/registry.h"

namespace allocbench {

using wsc::tcmalloc::RealThreadCache;
using wsc::tcmalloc::RealThreadsAllocator;

struct RtWorkload {
  uint64_t seed = 0;
  int threads = 1;
  uint32_t window = 0;         // live blocks each worker keeps
  uint32_t handoff_period = 0;  // one block in this many goes to the next
  uint64_t rounds = 0;  // timed rounds per worker, about 1.5 s on 4 vCPUs
  std::vector<std::vector<uint32_t>> sizes;  // per worker, one round
};

inline RtWorkload GenerateRtHandoff(uint64_t seed, int threads) {
  constexpr uint32_t kStepsPerRound = 32768;
  RtWorkload w;
  w.seed = seed;
  w.threads = threads;
  w.window = 4096;
  w.handoff_period = 16;
  w.rounds = 400;
  for (int t = 0; t < threads; ++t) {
    UnitDeck deck(Mix64(seed ^ (0x27a1ULL << 16) ^ static_cast<uint64_t>(t)),
                  kStepsPerRound);
    std::vector<uint32_t> sizes(kStepsPerRound);
    for (uint32_t& s : sizes) s = PaperSizeAt(deck.Next());
    w.sizes.push_back(std::move(sizes));
  }
  return w;
}

inline void PrintRtSummary(const RtWorkload& w, FILE* out) {
  uint64_t blocks = 0, under_1k = 0;
  double bytes = 0, above_8k = 0, above_256k = 0, live = 0;
  for (const auto& sizes : w.sizes) {
    for (size_t i = 0; i < sizes.size(); ++i) {
      uint32_t s = sizes[i];
      ++blocks;
      bytes += s;
      if (s < 1024) ++under_1k;
      if (s > 8192) above_8k += s;
      if (s > kMaxSmallRequest) above_256k += s;
      if (i < w.window) live += s;
    }
  }
  fprintf(out,
          "{\"workload\":\"rt-handoff\",\"seed\":%llu,\"threads\":%d,"
          "\"calls_per_round\":%llu,\"share_blocks_under_1k\":%.4f,"
          "\"share_bytes_above_8k\":%.4f,\"share_bytes_above_256k\":%.4f,"
          "\"live_set_mib\":%.2f,\"cross_thread_free_share\":%.4f}\n",
          static_cast<unsigned long long>(w.seed), w.threads,
          static_cast<unsigned long long>(2 * blocks),
          blocks ? static_cast<double>(under_1k) / blocks : 0.0,
          bytes > 0 ? above_8k / bytes : 0.0,
          bytes > 0 ? above_256k / bytes : 0.0, Mib(live),
          1.0 / w.handoff_period);
}

// Timed rows of the real_threads layer. Each call is classified from the
// caller's underflow/overflow counters and the arena's used bytes, read
// before and after the call.
enum RtLayer : int {
  kAllocHit,
  kAllocRefill,  // underflow served by the shards
  kAllocCarve,   // underflow that grew the arena
  kFreeHit,
  kFreeSpill,
  kFlushRow,
  kRtReleaseRow,
  kNumRtLayers,
};

inline const char* const kRtLayerNames[kNumRtLayers] = {
    "real_threads.alloc_hit",  "real_threads.alloc_refill",
    "real_threads.alloc_carve", "real_threads.free_hit",
    "real_threads.free_spill", "real_threads.flush",
    "real_threads.release"};

// The quiescent invariants of a RealThreadsAllocator once every block is
// freed and every worker has joined.
struct RtQuiescentState {
  double allocations = 0;
  double frees = 0;
  double live_bytes = 0;
  double carved_objects = 0;
  double cached_objects = 0;
};

inline void CheckRtQuiescent(const RtQuiescentState& s, Checks& checks) {
  checks.Expect(s.allocations == s.frees, kConservation);
  checks.Expect(s.live_bytes == 0, kLiveBytesZero);
  checks.Expect(s.carved_objects == s.cached_objects, kCarvedCached);
}

// Checks every block the library API returns.
inline void CheckLibBlock(uintptr_t p, size_t size, size_t usable,
                          bool check_usable, Checks& checks) {
  checks.Expect(p != 0, kNonNull);
  if (p == 0) return;
  checks.Expect(p % 8 == 0, kLibAlign8);
  if (size > kMaxSmallRequest) {
    checks.Expect(p % wsc::tcmalloc::kPageSize == 0, kLargePageAlign);
  }
  if (check_usable) checks.Expect(usable >= size, kUsableSize);
}

class RtHandoff {
 public:
  struct Block {
    uintptr_t addr = 0;
    uint32_t size = 0;
    uint64_t tag = 0;
  };

  // Single-producer single-consumer ring from worker i to worker i+1.
  struct alignas(64) Inbox {
    static constexpr uint32_t kCap = 1 << 14;
    std::atomic<uint64_t> head{0};  // consumer
    alignas(64) std::atomic<uint64_t> tail{0};  // producer
    alignas(64) Block slots[kCap];

    bool Push(const Block& b) {
      uint64_t t = tail.load(std::memory_order_relaxed);
      if (t - head.load(std::memory_order_acquire) == kCap) return false;
      slots[t % kCap] = b;
      tail.store(t + 1, std::memory_order_release);
      return true;
    }
    bool Pop(Block* b) {
      uint64_t h = head.load(std::memory_order_relaxed);
      if (h == tail.load(std::memory_order_acquire)) return false;
      *b = slots[h % kCap];
      head.store(h + 1, std::memory_order_release);
      return true;
    }
  };

  struct alignas(64) Worker {
    RealThreadCache* tc = nullptr;
    std::vector<Block> window;
    uint32_t cursor = 0;
    uint64_t calls = 0;
    uint64_t rounds = 0;
    uint64_t tag_seq = 0;
    uint64_t last_round_end_ns = 0;
    RoundTimes times;
    Checks checks;
    std::unique_ptr<LatencyHist[]> hists;
    std::unique_ptr<SpanBuffer> spans;
    std::atomic<bool> producing{true};
  };

  RtHandoff(const RtWorkload& w, bool traced)
      : w_(w),
        traced_(traced),
        alloc_(wsc::tcmalloc::AllocatorConfig::Builder()
                   .WithVcpus(w.threads)
                   .WithRealMemory()
                   .Build(),
               w.threads),
        inboxes_(new Inbox[w.threads]),
        workers_(new Worker[w.threads]) {
    if (traced_) clock_.Calibrate();
  }

  // Runs `rounds` timed rounds on every worker, then the teardown.
  void Run(uint64_t rounds, Phases* phases) {
    const int n = w_.threads;
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (int i = 0; i < n; ++i) {
      threads.emplace_back([this, i, &ready, &go] { Work(i, ready, go); });
    }
    while (ready.load(std::memory_order_acquire) < n) std::this_thread::yield();
    phases->first_call_ns = MonoNs();
    start_ns_ = phases->first_call_ns;
    rounds_ = rounds;
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    uint64_t end = 0;
    for (int i = 0; i < n; ++i) {
      end = std::max(end, workers_[i].last_round_end_ns);
    }
    phases->end_ns = end;
  }

  RealThreadsAllocator& alloc() { return alloc_; }
  const TickClock& clock() const { return clock_; }
  Worker& worker(int i) { return workers_[i]; }
  int threads() const { return w_.threads; }

 private:
  uint64_t NextTag(Worker& self, int i) {
    return Mix64(w_.seed ^ (static_cast<uint64_t>(i) << 56) ^ ++self.tag_seq) |
           1;
  }

  template <class F>
  auto Timed(Worker& self, int i, uint32_t layer, uint64_t request, F&& call) {
    uint64_t t0 = Ticks();
    auto result = call();
    uint64_t t1 = Ticks();
    self.hists[layer].Add(clock_.ToNs(t1 - t0));
    self.spans->Add(layer, static_cast<uint32_t>(i), t0, t1, request);
    return result;
  }

  uintptr_t Allocate(Worker& self, int i, uint32_t size, uint64_t request) {
    if (!traced_) return alloc_.Allocate(self.tc, size);
    uint64_t under = self.tc->underflows;
    size_t arena = alloc_.ArenaUsedBytes();
    uint64_t t0 = Ticks();
    uintptr_t p = alloc_.Allocate(self.tc, size);
    uint64_t t1 = Ticks();
    uint32_t layer = self.tc->underflows == under ? kAllocHit
                     : alloc_.ArenaUsedBytes() == arena ? kAllocRefill
                                                        : kAllocCarve;
    self.hists[layer].Add(clock_.ToNs(t1 - t0));
    self.spans->Add(layer, static_cast<uint32_t>(i), t0, t1, request);
    return p;
  }

  void Free(Worker& self, int i, const Block& b, uint64_t request) {
    self.checks.Expect(
        TagIntact(reinterpret_cast<void*>(b.addr), b.size, b.tag), kTag);
    ++self.calls;
    if (!traced_) {
      alloc_.Free(self.tc, b.addr, b.size);
      return;
    }
    uint64_t over = self.tc->overflows;
    uint64_t t0 = Ticks();
    alloc_.Free(self.tc, b.addr, b.size);
    uint64_t t1 = Ticks();
    uint32_t layer = self.tc->overflows == over ? kFreeHit : kFreeSpill;
    self.hists[layer].Add(clock_.ToNs(t1 - t0));
    self.spans->Add(layer, static_cast<uint32_t>(i), t0, t1, request);
  }

  // One step: allocate, check and tag a block, then keep it in the window
  // (freeing the oldest) or hand it to the next worker.
  void Step(Worker& self, int i, uint32_t step, uint64_t request,
            bool counted) {
    uint32_t size = w_.sizes[i][step];
    uintptr_t p = Allocate(self, i, size, request);
    if (counted) ++self.calls;
    bool check_usable = (step & 7) == 0;
    CheckLibBlock(p, size, check_usable ? alloc_.UsableSize(p) : 0,
                  check_usable, self.checks);
    if (p == 0) return;
    Block b{p, size, NextTag(self, i)};
    WriteTag(reinterpret_cast<void*>(p), size, b.tag);
    if (step % w_.handoff_period == w_.handoff_period - 1 &&
        inboxes_[(i + 1) % w_.threads].Push(b)) {
      return;
    }
    Block& slot = self.window[self.cursor];
    self.cursor = (self.cursor + 1) % w_.window;
    if (slot.addr != 0) Free(self, i, slot, request);
    slot = b;
  }

  void DrainInbox(Worker& self, int i, uint64_t request) {
    Block b;
    while (inboxes_[i].Pop(&b)) Free(self, i, b, request);
  }

  // One round of the worker's size stream, ending with a cache flush.
  // Returns the next request id.
  uint64_t Round(Worker& self, int i, uint64_t request, bool counted) {
    const uint32_t steps = static_cast<uint32_t>(w_.sizes[i].size());
    for (uint32_t s = 0; s < steps; ++s) {
      Step(self, i, s, request, counted);
      if ((s & 63) == 63) DrainInbox(self, i, request++);
    }
    DrainInbox(self, i, request);
    if (traced_) {
      Timed(self, i, kFlushRow, request, [&] {
        alloc_.FlushThreadCache(self.tc);
        return 0;
      });
    } else {
      alloc_.FlushThreadCache(self.tc);
    }
    ++self.rounds;
    return request + 1;
  }

  void Work(int i, std::atomic<int>& ready, std::atomic<bool>& go) {
    Worker& self = workers_[i];
    self.tc = alloc_.RegisterThread();
    self.window.assign(w_.window, Block{});
    if (traced_) {
      self.hists.reset(new LatencyHist[kNumRtLayers]);
      self.spans.reset(new SpanBuffer(size_t{1} << 16));
    }
    // Warm-up: fill the window to its steady size, then one untimed round
    // so the caches fill.
    for (uint32_t s = 0; s < w_.window; ++s) {
      Step(self, i, s % w_.sizes[i].size(), 0, false);
    }
    Round(self, i, 0, false);
    self.calls = 0;
    self.rounds = 0;
    if (traced_) {
      // The traced rows cover the timed rounds only.
      for (int l = 0; l < kNumRtLayers; ++l) self.hists[l] = LatencyHist();
      self.spans->Clear();
    }
    ready.fetch_add(1, std::memory_order_acq_rel);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();

    uint64_t request = 1;
    self.times.Reserve(rounds_);
    uint64_t t = start_ns_;
    for (uint64_t r = 0; r < rounds_; ++r) {
      request = Round(self, i, request, true);
      uint64_t now = MonoNs();
      self.times.Add(now - t);
      t = now;
    }
    self.last_round_end_ns = t;
    const uint64_t timed_calls = self.calls;

    // Teardown: wait for the previous worker to stop producing, take
    // what it handed over, then free the window and flush.
    self.producing.store(false, std::memory_order_release);
    Worker& producer = workers_[(i + w_.threads - 1) % w_.threads];
    while (producer.producing.load(std::memory_order_acquire)) {
      DrainInbox(self, i, request);
      std::this_thread::yield();
    }
    DrainInbox(self, i, request);
    for (Block& b : self.window) {
      if (b.addr != 0) Free(self, i, b, request);
      b = Block{};
    }
    alloc_.FlushThreadCache(self.tc);
    self.calls = timed_calls;
  }

  const RtWorkload& w_;
  const bool traced_;
  RealThreadsAllocator alloc_;
  std::unique_ptr<Inbox[]> inboxes_;
  std::unique_ptr<Worker[]> workers_;
  TickClock clock_;
  uint64_t start_ns_ = 0;
  uint64_t rounds_ = 0;
};

// Runs rt-handoff and writes its report object body (no braces).
inline void RunRtHandoff(const Args& args, Phases* phases, FILE* out) {
  const int n = WorkerCount();
  RtWorkload w = GenerateRtHandoff(args.seed, n);
  if (args.summary) {
    PrintRtSummary(w, out);
    return;
  }
  phases->gen_end_ns = MonoNs();
  auto bench = std::make_unique<RtHandoff>(w, args.trace);
  bench->Run(args.rounds ? args.rounds : w.rounds, phases);
  const size_t peak_rss = PeakRssBytes();

  RealThreadsAllocator& alloc = bench->alloc();
  Checks checks;
  uint64_t calls = 0, rounds = 0;
  for (int i = 0; i < n; ++i) {
    checks.Merge(bench->worker(i).checks);
    calls += bench->worker(i).calls;
    rounds += bench->worker(i).rounds;
  }
  wsc::telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  auto m = [&snap](const char* c, const char* name) {
    const wsc::telemetry::MetricSample* s = snap.Find(c, name);
    return s != nullptr ? s->ScalarValue() : 0.0;
  };
  RtQuiescentState q;
  q.allocations = m("allocator", "allocations");
  q.frees = m("allocator", "frees");
  q.live_bytes = m("allocator", "live_bytes");
  q.carved_objects = m("allocator", "carved_objects");
  q.cached_objects = m("allocator", "cached_objects");
  CheckRtQuiescent(q, checks);

  uint64_t t0 = Ticks();
  alloc.ReleaseMemoryToSystem(SIZE_MAX);
  uint64_t release_ticks = Ticks() - t0;
  const size_t rss_after_release = CurrentRssBytes();

  fprintf(out,
          "\"workload\":\"rt-handoff\",\"allocator\":\"real_threads\","
          "\"threads\":%d,\"seed\":%llu,\"rounds\":%llu,\"calls\":%llu,"
          "\"attempted\":%llu,\"failed\":%llu,",
          n, static_cast<unsigned long long>(args.seed),
          static_cast<unsigned long long>(rounds),
          static_cast<unsigned long long>(calls),
          static_cast<unsigned long long>(calls),
          static_cast<unsigned long long>(checks.Total()));
  EmitPhases(out, *phases);
  // Workers run concurrently: the process's round rate is the sum of the
  // workers' rates, each its calls per round over its median round time.
  fprintf(out, ",\"worker_rounds\":[");
  for (int i = 0; i < n; ++i) {
    const auto& wk = bench->worker(i);
    fprintf(out, "%s{\"round_calls\":%llu", i ? "," : "",
            static_cast<unsigned long long>(wk.rounds ? wk.calls / wk.rounds
                                                      : 0));
    wk.times.Emit(out);
    fputc('}', out);
  }
  fputc(']', out);
  fprintf(out, ",\"peak_rss_mib\":%.4f,\"rss_after_release_mib\":%.4f",
          Mib(static_cast<double>(peak_rss)),
          Mib(static_cast<double>(rss_after_release)));
  fprintf(out, ",\"checks\":");
  checks.Emit(out);
  if (!args.trace) return;

  LatencyHist merged[kNumRtLayers];
  for (int i = 0; i < n; ++i) {
    for (int l = 0; l < kNumRtLayers; ++l) {
      merged[l].Merge(bench->worker(i).hists[l]);
    }
  }
  merged[kRtReleaseRow].Add(bench->clock().ToNs(release_ticks));
  fprintf(out, ",\"hists\":{");
  for (int l = 0; l < kNumRtLayers; ++l) {
    fprintf(out, "%s\"%s\":", l ? "," : "", kRtLayerNames[l]);
    merged[l].Emit(out);
  }
  fprintf(out, "}");
  // Counts only: the runner builds each ratio from the counts summed over
  // its processes.
  double allocs = m("allocator", "allocations");
  double frees = m("allocator", "frees");
  double arena = m("allocator", "arena_used_bytes");
  size_t span_count = 0;
  uint64_t dropped = 0;
  for (int i = 0; i < n; ++i) {
    span_count += bench->worker(i).spans->size();
    dropped += bench->worker(i).spans->dropped();
  }
  fprintf(
      out,
      ",\"values\":{"
      "\"real_threads.allocations\":%.0f,"
      "\"real_threads.fast_alloc_hits\":%.0f,"
      "\"real_threads.frees\":%.0f,"
      "\"real_threads.fast_free_hits\":%.0f,"
      "\"real_threads.transfer_removes\":%.0f,"
      "\"real_threads.transfer_remove_misses\":%.0f,"
      "\"real_threads.transfer_inserts\":%.0f,"
      "\"real_threads.transfer_insert_overflows\":%.0f,"
      "\"real_threads.steal_probes\":%.0f,"
      "\"real_threads.work_steals\":%.0f,"
      "\"real_threads.refill_stalls\":%.0f,"
      "\"real_threads.arena_carves\":%.0f,"
      "\"real_threads.carved_bytes_per_kop\":%.4f,"
      "\"real_threads.arena_used_mib\":%.4f,"
      "\"real_threads.cfl_lock_acquisitions\":%.0f,"
      "\"real_threads.cfl_lock_contended\":%.0f,"
      "\"real_threads.transfer_lock_acquisitions\":%.0f,"
      "\"real_threads.transfer_lock_contended\":%.0f,"
      "\"real_threads.footprint_mib\":%.4f,"
      "\"trace.spans\":%zu,\"trace.spans_dropped\":%llu,"
      "\"trace.timer_overhead_ns\":%llu}",
      allocs, m("thread_cache", "fast_alloc_hits"), frees,
      m("thread_cache", "fast_free_hits"), m("sharded_transfer", "removes"),
      m("sharded_transfer", "remove_misses"), m("sharded_transfer", "inserts"),
      m("sharded_transfer", "insert_overflows"),
      m("contention", "steal_probes"), m("contention", "work_steals"),
      m("contention", "refill_stalls"), m("contention", "arena_carves"),
      allocs + frees > 0 ? arena / (allocs + frees) * 1000.0 : 0.0,
      Mib(arena), m("contention", "cfl_lock_acquisitions"),
      m("contention", "cfl_lock_contended"),
      m("contention", "transfer_lock_acquisitions"),
      m("contention", "transfer_lock_contended"),
      Mib(m("allocator", "footprint_bytes")), span_count,
      static_cast<unsigned long long>(dropped),
      static_cast<unsigned long long>(TimerOverheadNs(bench->clock())));
  if (args.span_path != nullptr) {
    if (FILE* f = fopen(args.span_path, "w")) {
      fprintf(f, "layer,thread,start_ns,duration_ns,request\n");
      for (int i = 0; i < n; ++i) {
        bench->worker(i).spans->WriteCsv(f, kRtLayerNames, bench->clock());
      }
      fclose(f);
    }
  }
}

}  // namespace allocbench

#endif  // ALLOCBENCH_RT_HANDOFF_H_

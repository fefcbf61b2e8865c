// The two malloc-family workloads, shim-serve and large-churn.
//
// Both replay a seed-generated round of operations in a closed loop on
// one thread. A round is a fixed number of allocator calls whatever the
// seed, and it leaves the slot table in the state it found it, so any
// number of whole rounds can be replayed and every run attempts whole
// rounds of the same operations.
//
// The drivers are templates over the allocator interface `Api`, so the
// benchmark's own tests can run them against deliberately broken stand-in
// allocators. Api provides:
//   void* Malloc(size_t); void Free(void*); void* Calloc(size_t, size_t);
//   void* Realloc(void*, size_t); int Memalign(void**, size_t, size_t);
//   size_t UsableSize(void*); size_t Release(); bool Stats(AllocStats*);

#ifndef ALLOCBENCH_MALLOC_WORKLOADS_H_
#define ALLOCBENCH_MALLOC_WORKLOADS_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "harness.h"

namespace allocbench {

// Largest request served by size classes; above it the large path runs.
inline constexpr size_t kMaxSmallRequest = size_t{256} << 10;
// large-churn writes one word in every 4 KiB page of each block: the
// workload holds resident all the memory it asks for, whatever page size
// backs it, so retained and released ranges show in the resident set.
inline constexpr size_t kTouchStride = size_t{4} << 10;
// Ceiling for large-churn's relative realloc growth.
inline constexpr uint32_t kMaxGrowth = 6u << 20;

// Allocator counters read through the allocator's stats entry point
// (wscmalloc_stats_json for the shim). `valid` is false when the
// allocator under test has no such entry point (plain glibc).
struct AllocStats {
  bool valid = false;
  double allocations = 0;
  double frees = 0;
  double live_bytes = 0;
  double footprint_bytes = 0;
  double released_bytes = 0;
  double recommitted_bytes = 0;
  double large_pending_bytes = 0;
};

// Parses the one-line JSON object wscmalloc_stats_json writes.
inline AllocStats ParseStatsJson(const char* json) {
  AllocStats s;
  auto field = [json](const char* key, double* out) {
    char pat[64];
    snprintf(pat, sizeof(pat), "\"%s\":", key);
    const char* p = strstr(json, pat);
    if (p == nullptr) return false;
    *out = strtod(p + strlen(pat), nullptr);
    return true;
  };
  s.valid = field("allocations", &s.allocations) &&
            field("frees", &s.frees) && field("live_bytes", &s.live_bytes);
  field("footprint_bytes", &s.footprint_bytes);
  field("released_bytes", &s.released_bytes);
  field("recommitted_bytes", &s.recommitted_bytes);
  field("large_pending_bytes", &s.large_pending_bytes);
  return s;
}

// ---- Operations ---------------------------------------------------------------

enum class OpKind : uint8_t {
  kMalloc,    // slot <- malloc(size)
  kCalloc,    // slot <- calloc(size / elem, elem)
  kMemalign,  // slot <- posix_memalign(align, size)
  kRealloc,   // slot <- realloc(slot, size)
  kFree,      // free(slot)
  kProbe,     // fault-1 alignment probe: kProbeBlocks x malloc(size) + free
  kRelease,   // allocator release entry point (not counted as a call)
};

struct Op {
  OpKind kind;
  uint8_t align_log2;  // kMemalign
  uint16_t elem;       // kCalloc element size
  uint32_t slot;
  uint32_t size;
  uint32_t request;    // request (or batch) that issued the op
};

// Blocks one alignment probe allocates and frees.
inline constexpr int kProbeBlocks = 8;

// One request size for each size class of 17-128 B that is an odd
// multiple of 8 (classes 24, 40, ..., 120). C17 requires 16-byte
// alignment for each of them.
inline constexpr uint32_t kProbeSizes[] = {24, 40, 56, 72, 88, 100, 120};

inline uint64_t OpCalls(const Op& op) {
  switch (op.kind) {
    case OpKind::kProbe:
      return 2 * kProbeBlocks;
    case OpKind::kRelease:
      return 0;
    default:
      return 1;
  }
}

struct MallocWorkload {
  const char* name = "";
  uint64_t seed = 0;
  uint32_t num_slots = 0;
  // Slots [0, cache_base) hold request-local blocks; [cache_base,
  // num_slots) hold the long-lived set that warm-up fills.
  uint32_t cache_base = 0;
  std::vector<uint32_t> warm_sizes;  // one per long-lived slot
  std::vector<Op> round;
  uint64_t calls_per_round = 0;
  uint64_t rounds = 0;  // timed rounds per process, 1-2 s on 4 vCPUs
  bool touch_pages = false;  // write one word per kTouchStride bytes
};

// ---- Size mix -------------------------------------------------------------------

// Paper-like request sizes as an inverse CDF over u in [0, 1): most
// under 1 KiB, a tail up to 256 KiB.
inline uint32_t PaperSizeAt(double u) {
  struct Band {
    double upto;
    uint64_t lo, hi;
    bool log;
  };
  static constexpr Band kBands[] = {
      {0.45, 8, 64, false},          {0.75, 65, 256, false},
      {0.90, 257, 1024, false},      {0.97, 1025, 8192, true},
      {0.995, 8193, 65536, true},    {1.0, 65537, kMaxSmallRequest, true}};
  double from = 0;
  for (const Band& b : kBands) {
    if (u < b.upto || &b == &kBands[5]) {
      double v = (u - from) / (b.upto - from);
      if (b.log) return static_cast<uint32_t>(LogUniformAt(v, b.lo, b.hi));
      uint64_t s = b.lo + static_cast<uint64_t>(v * (b.hi - b.lo + 1));
      return static_cast<uint32_t>(s > b.hi ? b.hi : s);
    }
    from = b.upto;
  }
  return 8;
}

// The malloc-family mix requests 17-128 B sizes in multiples of 16, so
// the randomized stream never lands in the 8-byte-spaced classes the
// probe measures: a misaligned block there would fail on some seeds and
// not others. The probe counts that fault on the same inputs every round.
inline uint32_t MallocMixSize(UnitDeck& deck) {
  uint32_t s = PaperSizeAt(deck.Next());
  if (s > 16 && s <= 128) s = (s + 15) & ~15u;
  return s;
}

// ---- Generators -------------------------------------------------------------------

class RoundBuilder {
 public:
  explicit RoundBuilder(MallocWorkload* w) : w_(w) {}
  void Add(OpKind kind, uint32_t slot, uint32_t size, uint32_t request,
           uint16_t elem = 0, uint8_t align_log2 = 0) {
    Op op{kind, align_log2, elem, slot, size, request};
    w_->round.push_back(op);
    w_->calls_per_round += OpCalls(op);
  }
  uint64_t calls() const { return w_->calls_per_round; }

 private:
  MallocWorkload* w_;
};

// shim-serve: one thread serves requests. Each request allocates a burst
// of short-lived blocks (malloc, calloc, posix_memalign, realloc growth),
// may replace or grow one entry of a bounded long-lived cache chosen at
// random, then frees its burst.
inline MallocWorkload GenerateShimServe(uint64_t seed) {
  constexpr uint32_t kBurstSlots = 16;
  constexpr uint32_t kCacheSlots = 8192;
  constexpr uint64_t kCallsPerRound = 131072;
  MallocWorkload w;
  w.name = "shim-serve";
  w.seed = seed;
  w.rounds = 80;
  w.cache_base = kBurstSlots;
  w.num_slots = kBurstSlots + kCacheSlots;
  Rng rng(Mix64(seed ^ 0x5e77e));
  // One size deck per kind of call, so each kind gets nearly the same
  // sizes whatever the seed.
  enum { kPlain, kCallocSizes, kMemalignSizes, kChain, kCache, kNumDecks };
  std::vector<UnitDeck> sizes;
  for (uint64_t d = 0; d < kNumDecks; ++d) {
    sizes.emplace_back(Mix64(seed ^ (0x512e5 + d)), 4096);
  }
  UnitDeck kinds(Mix64(seed ^ 0x4b1d5), 1024);
  UnitDeck bursts(Mix64(seed ^ 0xb0457), 1024);
  for (uint32_t i = 0; i < kCacheSlots; ++i) {
    w.warm_sizes.push_back(MallocMixSize(sizes[kCache]));
  }
  RoundBuilder b(&w);
  uint32_t request = 0;
  auto cache_slot = [&] {
    return kBurstSlots + static_cast<uint32_t>(rng.Below(kCacheSlots));
  };
  // Requests, until the remaining budget could not hold another one.
  while (kCallsPerRound - b.calls() >= 64) {
    uint32_t burst = 1 + static_cast<uint32_t>(bursts.Next() * 12);
    for (uint32_t slot = 0; slot < burst; ++slot) {
      double u = kinds.Next();
      int deck = u < 0.08 ? kCallocSizes
                 : u < 0.14 ? kMemalignSizes
                 : u < 0.22 ? kChain
                            : kPlain;
      uint32_t size = MallocMixSize(sizes[deck]);
      if (u < 0.08) {
        uint16_t elem = rng.Chance(0.5) ? 16 : 8;
        size = (size + elem - 1) / elem * elem;
        b.Add(OpKind::kCalloc, slot, size, request, elem);
      } else if (u < 0.14) {
        uint8_t align_log2 = static_cast<uint8_t>(rng.Range(4, 12));
        b.Add(OpKind::kMemalign, slot, size, request, 0, align_log2);
      } else if (u < 0.22) {
        b.Add(OpKind::kMalloc, slot, size, request);
        int grows = static_cast<int>(rng.Range(1, 2));
        for (int g = 0; g < grows; ++g) {
          uint32_t grown = size + size / 2 + 8;
          if (grown > kMaxSmallRequest) grown = kMaxSmallRequest;
          if (grown > 16 && grown <= 128) grown = (grown + 15) & ~15u;
          size = grown;
          b.Add(OpKind::kRealloc, slot, size, request);
        }
      } else {
        b.Add(OpKind::kMalloc, slot, size, request);
      }
    }
    double c = kinds.Next();
    if (c < 0.35) {
      uint32_t slot = cache_slot();
      b.Add(OpKind::kFree, slot, 0, request);
      b.Add(OpKind::kMalloc, slot, MallocMixSize(sizes[kCache]), request);
    } else if (c < 0.40) {
      b.Add(OpKind::kRealloc, cache_slot(), MallocMixSize(sizes[kCache]), request);
    }
    for (uint32_t slot = burst; slot-- > 0;) {
      b.Add(OpKind::kFree, slot, 0, request);
    }
    ++request;
  }
  // Fill to the exact budget: replacements (2 calls) and, for an odd
  // remainder, one long-lived realloc (1 call).
  while (b.calls() < kCallsPerRound) {
    uint32_t slot = cache_slot();
    if ((kCallsPerRound - b.calls()) % 2 == 1) {
      b.Add(OpKind::kRealloc, slot, MallocMixSize(sizes[kCache]), request);
    } else {
      b.Add(OpKind::kFree, slot, 0, request);
      b.Add(OpKind::kMalloc, slot, MallocMixSize(sizes[kCache]), request);
    }
  }
  ++request;
  for (uint32_t size : kProbeSizes) {
    b.Add(OpKind::kProbe, 0, size, request);
  }
  return w;
}

// large-churn: blocks above the largest size class (256 KiB to 4 MiB).
// Each round mixes transient buffers (malloc, use, free), replacement of
// a bounded long-lived set (malloc, calloc or posix_memalign), realloc
// growth of long-lived blocks, and one call to the release entry point.
// One word in every 4 KiB page of a block is written: the workload uses
// what it asks for.
inline MallocWorkload GenerateLargeChurn(uint64_t seed) {
  constexpr uint32_t kSlots = 48;
  constexpr uint32_t kTransientSlot = kSlots;
  constexpr uint32_t kBatches = 256;
  constexpr uint32_t kReleaseEvery = 16;
  constexpr uint32_t kMin = kMaxSmallRequest + 1;
  constexpr uint32_t kMax = 4u << 20;
  MallocWorkload w;
  w.name = "large-churn";
  w.seed = seed;
  w.rounds = 12;
  w.cache_base = 0;
  w.num_slots = kSlots + 1;
  w.touch_pages = true;
  Rng rng(Mix64(seed ^ 0x1a29e));
  UnitDeck sizes(Mix64(seed ^ 0x512e5), 256);
  auto size = [&sizes] {
    return static_cast<uint32_t>(LogUniformAt(sizes.Next(), kMin, kMax));
  };
  for (uint32_t i = 0; i < kSlots; ++i) w.warm_sizes.push_back(size());
  // Exact counts per round, in a seeded order: half transient buffers,
  // the rest realloc growth and replacements.
  enum Kind : uint8_t { kTransient, kGrow, kCallocKind, kMemalignKind, kPlain };
  std::vector<uint8_t> kinds;
  kinds.insert(kinds.end(), 128, kTransient);
  kinds.insert(kinds.end(), 40, kGrow);
  kinds.insert(kinds.end(), 26, kCallocKind);
  kinds.insert(kinds.end(), 26, kMemalignKind);
  kinds.insert(kinds.end(), kBatches - kinds.size(), kPlain);
  for (size_t i = kinds.size(); i > 1; --i) {
    std::swap(kinds[i - 1], kinds[rng.Below(i)]);
  }
  RoundBuilder b(&w);
  for (uint32_t batch = 0; batch < kBatches; ++batch) {
    uint32_t slot = static_cast<uint32_t>(rng.Below(kSlots));
    switch (kinds[batch]) {
      case kTransient:
        b.Add(OpKind::kMalloc, kTransientSlot, size(), batch);
        b.Add(OpKind::kFree, kTransientSlot, 0, batch);
        break;
      case kGrow:
        b.Add(OpKind::kRealloc, slot, 0, batch);  // grow by a quarter
        break;
      case kCallocKind:
        b.Add(OpKind::kFree, slot, 0, batch);
        b.Add(OpKind::kCalloc, slot, size() & ~7u, batch, 8);
        break;
      case kMemalignKind:
        b.Add(OpKind::kFree, slot, 0, batch);
        b.Add(OpKind::kMemalign, slot, size(), batch, 0,
              static_cast<uint8_t>(rng.Range(12, 16)));
        break;
      default:
        b.Add(OpKind::kFree, slot, 0, batch);
        b.Add(OpKind::kMalloc, slot, size(), batch);
        break;
    }
    if (batch % kReleaseEvery == kReleaseEvery - 1) {
      b.Add(OpKind::kRelease, 0, 0, batch);
    }
  }
  return w;
}

inline bool GenerateMallocWorkload(const char* name, uint64_t seed,
                                   MallocWorkload* out) {
  if (strcmp(name, "shim-serve") == 0) {
    *out = GenerateShimServe(seed);
  } else if (strcmp(name, "large-churn") == 0) {
    *out = GenerateLargeChurn(seed);
  } else {
    return false;
  }
  return true;
}

// Input make-up of one round (the --summary report).
inline void PrintMallocSummary(const MallocWorkload& w, FILE* out) {
  uint64_t blocks = 0, under_1k = 0;
  double bytes = 0, above_8k = 0, above_256k = 0;
  for (const Op& op : w.round) {
    // Frees, releases and relative realloc growth (size 0) add no block
    // of a size known before the run.
    if (op.kind == OpKind::kFree || op.kind == OpKind::kRelease ||
        op.size == 0) {
      continue;
    }
    uint64_t n = op.kind == OpKind::kProbe ? kProbeBlocks : 1;
    blocks += n;
    double sz = static_cast<double>(op.size) * static_cast<double>(n);
    bytes += sz;
    if (op.size < 1024) under_1k += n;
    if (op.size > 8192) above_8k += sz;
    if (op.size > kMaxSmallRequest) above_256k += sz;
  }
  double live = 0;
  for (uint32_t s : w.warm_sizes) live += s;
  fprintf(out,
          "{\"workload\":\"%s\",\"seed\":%llu,\"calls_per_round\":%llu,"
          "\"blocks_per_round\":%llu,\"share_blocks_under_1k\":%.4f,"
          "\"share_bytes_above_8k\":%.4f,\"share_bytes_above_256k\":%.4f,"
          "\"live_set_mib\":%.2f,\"cross_thread_free_share\":0,"
          "\"threads\":1}\n",
          w.name, static_cast<unsigned long long>(w.seed),
          static_cast<unsigned long long>(w.calls_per_round),
          static_cast<unsigned long long>(blocks),
          blocks ? static_cast<double>(under_1k) / blocks : 0.0,
          bytes > 0 ? above_8k / bytes : 0.0,
          bytes > 0 ? above_256k / bytes : 0.0, Mib(live));
}

// ---- Driver -------------------------------------------------------------------------

// Timed rows of the shim layer.
enum ShimLayer : int {
  kMallocSmall,
  kFreeSmall,
  kCallocRow,
  kReallocRow,
  kMemalignRow,
  kMallocLarge,
  kFreeLarge,
  kReleaseRow,
  kNumShimLayers,
};

inline const char* const kShimLayerNames[kNumShimLayers] = {
    "shim.malloc_small", "shim.free_small", "shim.calloc",
    "shim.realloc",      "shim.memalign",   "shim.malloc_large",
    "shim.free_large",   "shim.release"};

template <class Api>
class MallocDriver {
 public:
  struct Slot {
    void* ptr = nullptr;
    uint32_t size = 0;
    uint64_t tag = 0;
  };

  MallocDriver(Api& api, const MallocWorkload& w, bool traced,
               SpanBuffer* spans)
      : api_(api), w_(w), traced_(traced), spans_(spans),
        slots_(w.num_slots) {}

  Checks& checks() { return checks_; }
  const LatencyHist& hist(int layer) const { return hists_[layer]; }
  uint64_t calls() const { return calls_; }
  const TickClock& clock() const { return clock_; }
  void CalibrateClock() { clock_.Calibrate(); }

  // Fills the long-lived slots, so the live set reaches its steady size,
  // then runs one untimed round so the caches fill.
  void WarmUp() {
    for (uint32_t i = 0; i < w_.warm_sizes.size(); ++i) {
      Op op{OpKind::kMalloc, 0, 0, w_.cache_base + i, w_.warm_sizes[i], 0};
      Exec(op);
    }
    RunRound(/*warm=*/true);
    // The traced rows cover the timed rounds only.
    for (LatencyHist& h : hists_) h = LatencyHist();
    if (spans_ != nullptr) spans_->Clear();
  }

  // One round. The warm-up round skips the alignment probe, so the
  // probe's failures are counted in timed rounds only, the same number in
  // each.
  void RunRound(bool warm = false) {
    for (const Op& op : w_.round) {
      if (!(warm && op.kind == OpKind::kProbe)) Exec(op);
    }
    ++round_;
    if (warm) calls_ = 0;
  }

  // Frees every block still held; used once at the end of the run.
  void FreeAll() {
    for (uint32_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].ptr != nullptr) {
        Op op{OpKind::kFree, 0, 0, i, 0, 0};
        Exec(op);
      }
    }
  }

  // Once every block is freed, the allocator's own counters (when it has
  // them) must show as many frees as allocations and no live bytes beyond
  // what the process held before the workload started.
  void CheckConservation(const AllocStats& before, const AllocStats& after) {
    if (!before.valid || !after.valid) return;
    checks_.Expect(after.allocations - before.allocations ==
                       after.frees - before.frees,
                   kConservation);
    checks_.Expect(after.live_bytes == before.live_bytes, kLiveBytesZero);
  }

  // The release entry point with no byte limit, recorded in the release
  // row like the releases inside the rounds.
  void ReleaseAll() {
    Timed(kReleaseRow, 0, [&] { return api_.Release(); });
  }

 private:
  uint64_t NextTag() {
    return Mix64(w_.seed ^ (round_ << 24) ^ ++tag_seq_) | 1;
  }

  // Runs `call` and, in the traced run, records its span in `layer`.
  template <class F>
  auto Timed(uint32_t layer, uint32_t request, F&& call) {
    if (!traced_) return call();
    uint64_t t0 = Ticks();
    auto result = call();
    uint64_t t1 = Ticks();
    hists_[layer].Add(clock_.ToNs(t1 - t0));
    if (spans_ != nullptr) spans_->Add(layer, 0, t0, t1, request);
    return result;
  }

  void CheckNew(void* p, size_t size, bool malloc_family) {
    checks_.Expect(p != nullptr, kNonNull);
    if (p == nullptr) return;
    uintptr_t a = reinterpret_cast<uintptr_t>(p);
    if (malloc_family) checks_.Expect(a % C17Alignment(size) == 0, kC17Align);
    if ((++usable_seq_ & 7) == 0) {
      checks_.Expect(api_.UsableSize(p) >= size, kUsableSize);
    }
  }

  // Writes the block's tags and, for large-churn, one word per 4 KiB
  // page.
  void Fill(void* p, size_t size, uint64_t tag) {
    if (w_.touch_pages) {
      char* c = static_cast<char*>(p);
      for (size_t off = kTouchStride; off + 8 <= size; off += kTouchStride) {
        memcpy(c + off, &tag, 8);
      }
    }
    WriteTag(p, size, tag);
  }

  bool ReadsZero(const void* p, size_t size) const {
    const unsigned char* c = static_cast<const unsigned char*>(p);
    if (size <= kMaxSmallRequest) {
      // Every byte: the first is zero and each equals the next.
      return size == 0 || (c[0] == 0 && memcmp(c, c + 1, size - 1) == 0);
    }
    // Large blocks: the word in each page where a reused block would
    // still hold this workload's writes, and the last word.
    uint64_t word;
    for (size_t off = 0; off + 8 <= size; off += kTouchStride) {
      memcpy(&word, c + off, 8);
      if (word != 0) return false;
    }
    memcpy(&word, c + size - 8, 8);
    return word == 0;
  }

  void Release(Slot& s, uint32_t request) {
    checks_.Expect(TagIntact(s.ptr, s.size, s.tag), kTag);
    uint32_t layer = s.size > kMaxSmallRequest ? kFreeLarge : kFreeSmall;
    void* p = s.ptr;
    Timed(layer, request, [&] {
      api_.Free(p);
      return 0;
    });
    ++calls_;
    s = Slot{};
  }

  void Exec(const Op& op) {
    Slot& s = slots_[op.slot];
    switch (op.kind) {
      case OpKind::kMalloc: {
        uint32_t layer = op.size > kMaxSmallRequest ? kMallocLarge
                                                    : kMallocSmall;
        void* p = Timed(layer, op.request, [&] { return api_.Malloc(op.size); });
        ++calls_;
        CheckNew(p, op.size, true);
        if (p == nullptr) return;
        s = Slot{p, op.size, NextTag()};
        Fill(p, op.size, s.tag);
        return;
      }
      case OpKind::kCalloc: {
        size_t n = op.size / op.elem;
        void* p = Timed(kCallocRow, op.request,
                        [&] { return api_.Calloc(n, op.elem); });
        ++calls_;
        CheckNew(p, op.size, true);
        if (p == nullptr) return;
        checks_.Expect(ReadsZero(p, op.size), kCallocZero);
        s = Slot{p, op.size, NextTag()};
        Fill(p, op.size, s.tag);
        return;
      }
      case OpKind::kMemalign: {
        size_t align = size_t{1} << op.align_log2;
        void* p = nullptr;
        int rc = Timed(kMemalignRow, op.request,
                       [&] { return api_.Memalign(&p, align, op.size); });
        ++calls_;
        if (rc != 0) p = nullptr;
        CheckNew(p, op.size, false);
        if (p == nullptr) return;
        checks_.Expect(reinterpret_cast<uintptr_t>(p) % align == 0,
                       kMemalignAlign);
        s = Slot{p, op.size, NextTag()};
        Fill(p, op.size, s.tag);
        return;
      }
      case OpKind::kRealloc: {
        if (s.ptr == nullptr) return;  // an earlier call failed
        checks_.Expect(TagIntact(s.ptr, s.size, s.tag), kTag);
        uint32_t old_size = s.size;
        uint64_t old_tail = s.tag;
        void* old = s.ptr;
        // Size 0 grows the block by a quarter, up to kMaxGrowth.
        uint32_t size = op.size;
        if (size == 0) {
          size = old_size + old_size / 4;
          if (size > kMaxGrowth) size = kMaxGrowth;
        }
        void* p = Timed(kReallocRow, op.request,
                        [&] { return api_.Realloc(old, size); });
        ++calls_;
        CheckNew(p, size, true);
        if (p == nullptr) {
          // The old block is still valid and still ours.
          return;
        }
        // The prefix survives: the head tag and, when the block grew, the
        // old tail tag at its old offset.
        uint32_t keep = old_size < size ? old_size : size;
        bool kept = TagIntact(p, 8, s.tag);
        if (old_size >= 16 && keep == old_size) {
          uint64_t tail;
          memcpy(&tail, static_cast<char*>(p) + old_size - 8, 8);
          kept = kept && tail == old_tail;
        }
        checks_.Expect(kept, kReallocPrefix);
        s = Slot{p, size, NextTag()};
        Fill(p, size, s.tag);
        return;
      }
      case OpKind::kFree:
        if (s.ptr != nullptr) Release(s, op.request);
        return;
      case OpKind::kProbe: {
        void* blocks[kProbeBlocks];
        for (int i = 0; i < kProbeBlocks; ++i) {
          blocks[i] = Timed(kMallocSmall, op.request,
                            [&] { return api_.Malloc(op.size); });
          ++calls_;
          CheckNew(blocks[i], op.size, true);
          if (blocks[i] != nullptr) WriteTag(blocks[i], op.size, op.size);
        }
        for (int i = 0; i < kProbeBlocks; ++i) {
          if (blocks[i] == nullptr) continue;
          Slot tmp{blocks[i], op.size, op.size};
          Release(tmp, op.request);
        }
        return;
      }
      case OpKind::kRelease:
        Timed(kReleaseRow, op.request, [&] { return api_.Release(); });
        return;
    }
  }

  Api& api_;
  const MallocWorkload& w_;
  const bool traced_;
  SpanBuffer* spans_;
  std::vector<Slot> slots_;
  Checks checks_;
  LatencyHist hists_[kNumShimLayers];
  TickClock clock_;
  uint64_t calls_ = 0;
  uint64_t round_ = 0;
  uint64_t tag_seq_ = 0;
  uint64_t usable_seq_ = 0;
};

}  // namespace allocbench

#endif  // ALLOCBENCH_MALLOC_WORKLOADS_H_

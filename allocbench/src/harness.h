// Shared harness for the allocator benchmark binaries: seeded RNG, clocks,
// resident-memory probes, latency histograms, the in-memory span buffer,
// the failed-check ledger and the one-line JSON report.
//
// Everything here is header-only and depends on libc alone, so the
// malloc-family driver can run the same binary on glibc and under
// LD_PRELOAD=libwscmalloc.so. Nothing in the hot loops allocates.

#ifndef ALLOCBENCH_HARNESS_H_
#define ALLOCBENCH_HARNESS_H_

#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace allocbench {

// ---- Deterministic randomness ----------------------------------------

inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// SplitMix64 stream: small, fast, and identical on every host.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n); n > 0. Multiply-shift, bias below 2^-32.
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<__uint128_t>(Next()) * n) >> 64);
  }
  // Uniform in [lo, hi].
  uint64_t Range(uint64_t lo, uint64_t hi) { return lo + Below(hi - lo + 1); }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  bool Chance(double p) { return Unit() < p; }

 private:
  uint64_t state_;
};

// Uniform values in stratified blocks: each block of n holds one value
// from each of n equal-probability strata, in a seeded random order.
// Feeding these to an inverse CDF gives every seed nearly the same
// multiset of inputs, so the cost and footprint of a workload move little
// from seed to seed; the seed still decides their order and placement.
class UnitDeck {
 public:
  UnitDeck(uint64_t seed, uint32_t n) : rng_(seed), n_(n) {}
  double Next() {
    if (pos_ == cards_.size()) Deal();
    return cards_[pos_++];
  }

 private:
  void Deal() {
    cards_.resize(n_);
    for (uint32_t i = 0; i < n_; ++i) cards_[i] = (i + rng_.Unit()) / n_;
    for (uint32_t i = n_; i > 1; --i) {
      std::swap(cards_[i - 1], cards_[rng_.Below(i)]);
    }
    pos_ = 0;
  }

  Rng rng_;
  uint32_t n_;
  std::vector<double> cards_;
  size_t pos_ = 0;
};

// Inverse CDF of the log-uniform distribution on [lo, hi].
inline uint64_t LogUniformAt(double u, uint64_t lo, uint64_t hi) {
  double v = std::exp(std::log(static_cast<double>(lo)) +
                      u * (std::log(static_cast<double>(hi) + 1) -
                           std::log(static_cast<double>(lo))));
  uint64_t r = static_cast<uint64_t>(v);
  return r < lo ? lo : (r > hi ? hi : r);
}

// ---- Clocks -------------------------------------------------------------

// CLOCK_MONOTONIC nanoseconds: the clock the runner's time.monotonic()
// reads, so set-up time can be measured across the process boundary.
inline uint64_t MonoNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Cheap per-call timestamps for the traced run: the TSC on x86-64 (fenced
// so the read does not drift into the timed call), the monotonic clock
// elsewhere. Ticks convert to ns with the calibrated ratio below.
inline uint64_t Ticks() {
#if defined(__x86_64__)
  _mm_lfence();
  uint64_t t = __rdtsc();
  _mm_lfence();
  return t;
#else
  return MonoNs();
#endif
}

struct TickClock {
  double ns_per_tick = 1.0;
  uint64_t tick0 = 0;  // spans are written relative to this tick

  // Measures the tick rate against CLOCK_MONOTONIC over ~20 ms. Only the
  // traced run pays for it.
  void Calibrate() {
    uint64_t ns0 = MonoNs();
    tick0 = Ticks();
    uint64_t target = ns0 + 20000000ULL;
    uint64_t ns1;
    do ns1 = MonoNs(); while (ns1 < target);
    uint64_t tick1 = Ticks();
    ns_per_tick = tick1 > tick0 ? static_cast<double>(ns1 - ns0) /
                                      static_cast<double>(tick1 - tick0)
                                : 1.0;
  }
  uint64_t ToNs(uint64_t ticks) const {
    return static_cast<uint64_t>(static_cast<double>(ticks) * ns_per_tick);
  }
};

// ---- Resident memory -----------------------------------------------------

// Current resident set from /proc/self/statm, read with raw syscalls so
// the probe itself never allocates.
inline size_t CurrentRssBytes() {
  int fd = open("/proc/self/statm", O_RDONLY);
  if (fd < 0) return 0;
  char buf[128];
  ssize_t n = read(fd, buf, sizeof(buf) - 1);
  close(fd);
  if (n <= 0) return 0;
  buf[n] = '\0';
  unsigned long long size = 0, resident = 0;
  if (sscanf(buf, "%llu %llu", &size, &resident) != 2) return 0;
  return static_cast<size_t>(resident) *
         static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

// Peak resident set of the process so far (kernel high-water mark).
inline size_t PeakRssBytes() {
  rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<size_t>(ru.ru_maxrss) * 1024;
}

inline double Mib(double bytes) { return bytes / (1024.0 * 1024.0); }

// ---- Latency histogram ------------------------------------------------

// Log-linear buckets over nanoseconds: exact below 64 ns, then 32
// sub-buckets per power of two (about 3% relative width). Fixed storage,
// so recording never allocates; histograms merge bucket by bucket.
class LatencyHist {
 public:
  static constexpr int kLinear = 64;
  static constexpr int kSubBits = 5;
  static constexpr int kBuckets = kLinear + (64 - 6) * (1 << kSubBits);

  void Add(uint64_t ns) {
    ++buckets_[Index(ns)];
    ++count_;
  }
  void Merge(const LatencyHist& other) {
    for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
  }
  // Lower bound of the bucket holding quantile q.
  uint64_t Quantile(double q) const {
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_));
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen > rank) return LowerBound(i);
    }
    return 0;
  }

  static int Index(uint64_t v) {
    if (v < kLinear) return static_cast<int>(v);
    int exp = 63 - __builtin_clzll(v);  // >= 6
    int sub = static_cast<int>((v >> (exp - kSubBits)) & ((1 << kSubBits) - 1));
    return kLinear + (exp - 6) * (1 << kSubBits) + sub;
  }
  // Lower bound of bucket i; its upper bound is LowerBound(i + 1).
  static uint64_t LowerBound(int i) {
    if (i < kLinear) return static_cast<uint64_t>(i);
    int exp = (i - kLinear) / (1 << kSubBits) + 6;
    uint64_t sub = static_cast<uint64_t>((i - kLinear) % (1 << kSubBits));
    return (uint64_t{1} << exp) + (sub << (exp - kSubBits));
  }

  // Writes [[lo, hi, count], ...] for the non-empty buckets.
  void Emit(FILE* out) const {
    fputc('[', out);
    bool first = true;
    for (int i = 0; i < kBuckets; ++i) {
      if (buckets_[i] == 0) continue;
      fprintf(out, "%s[%llu,%llu,%llu]", first ? "" : ",",
              static_cast<unsigned long long>(LowerBound(i)),
              static_cast<unsigned long long>(
                  i + 1 < kBuckets ? LowerBound(i + 1) : LowerBound(i) + 1),
              static_cast<unsigned long long>(buckets_[i]));
      first = false;
    }
    fputc(']', out);
  }

 private:
  uint64_t buckets_[kBuckets] = {};
  uint64_t count_ = 0;
};

// Median cost of one timed span's two timestamps, in ns: the floor under
// every timed row of the traced run.
inline uint64_t TimerOverheadNs(const TickClock& clock) {
  LatencyHist h;
  for (int i = 0; i < 10000; ++i) {
    uint64_t t0 = Ticks();
    uint64_t t1 = Ticks();
    h.Add(clock.ToNs(t1 - t0));
  }
  return h.Quantile(0.5);
}

// ---- Spans ----------------------------------------------------------------

// One public call seen from the benchmark: which layer served it, when it
// started and ended (ticks), and the request or batch that caused it.
struct Span {
  uint32_t layer;
  uint32_t thread;
  uint64_t start;
  uint64_t end;
  uint64_t request;
};

// Spans are kept in memory and written when the run ends. The buffer is
// preallocated and bounded; spans past capacity are counted, not kept.
class SpanBuffer {
 public:
  explicit SpanBuffer(size_t capacity) : capacity_(capacity) {
    spans_ = static_cast<Span*>(calloc(capacity ? capacity : 1, sizeof(Span)));
  }
  ~SpanBuffer() { free(spans_); }
  SpanBuffer(const SpanBuffer&) = delete;
  SpanBuffer& operator=(const SpanBuffer&) = delete;

  void Add(uint32_t layer, uint32_t thread, uint64_t start, uint64_t end,
           uint64_t request) {
    if (size_ < capacity_) {
      spans_[size_++] = Span{layer, thread, start, end, request};
    } else {
      ++dropped_;
    }
  }
  size_t size() const { return size_; }
  uint64_t dropped() const { return dropped_; }
  void Clear() {
    size_ = 0;
    dropped_ = 0;
  }

  // CSV: layer,thread,start_ns,duration_ns,request. Times are relative to
  // the clock's calibration point.
  void WriteCsv(FILE* out, const char* const* layer_names,
                const TickClock& clock) const {
    for (size_t i = 0; i < size_; ++i) {
      const Span& s = spans_[i];
      fprintf(out, "%s,%u,%llu,%llu,%llu\n", layer_names[s.layer], s.thread,
              static_cast<unsigned long long>(
                  s.start > clock.tick0 ? clock.ToNs(s.start - clock.tick0)
                                        : 0),
              static_cast<unsigned long long>(clock.ToNs(s.end - s.start)),
              static_cast<unsigned long long>(s.request));
    }
  }

 private:
  Span* spans_ = nullptr;
  size_t capacity_;
  size_t size_ = 0;
  uint64_t dropped_ = 0;
};

// ---- Checks -----------------------------------------------------------------

// Every property the benchmark verifies. Each violation is one failed
// operation; the run continues to its end.
enum Check : int {
  kNonNull,          // every call returns a block
  kTag,              // first/last 8 bytes survive until free
  kReallocPrefix,    // realloc keeps the old prefix
  kCallocZero,       // calloc memory reads as zero
  kMemalignAlign,    // posix_memalign honours the requested alignment
  kUsableSize,       // usable size >= requested size
  kC17Align,         // malloc-family: min(16, pow2 floor(size)) alignment
  kLibAlign8,        // library API: 8-byte alignment
  kLargePageAlign,   // library API large blocks: page alignment
  kConservation,     // allocations == frees once everything is freed
  kLiveBytesZero,    // allocator/live_bytes == 0 at quiescence
  kCarvedCached,     // carved objects == objects cached in every tier
  kTierSum,          // exclusive tier hits sum to allocations
  kMmapSubset,       // mmap hits <= page heap hits
  kOverlap,          // live blocks never overlap
  kLiveCount,        // live set size == allocations - frees
  kDrainZero,        // simulator stats read zero after the final drain
  kNumChecks,
};

inline const char* CheckName(int c) {
  static const char* const kNames[kNumChecks] = {
      "non_null",     "tag",          "realloc_prefix", "calloc_zero",
      "memalign_align", "usable_size", "c17_align",     "lib_align8",
      "large_page_align", "conservation", "live_bytes_zero",
      "carved_eq_cached", "tier_sum",  "mmap_subset",   "overlap",
      "live_count",   "drain_zero"};
  return kNames[c];
}

struct Checks {
  uint64_t failed[kNumChecks] = {};

  void Expect(bool ok, Check c) {
    if (__builtin_expect(!ok, 0)) ++failed[c];
  }
  uint64_t Total() const {
    uint64_t n = 0;
    for (uint64_t f : failed) n += f;
    return n;
  }
  void Merge(const Checks& o) {
    for (int i = 0; i < kNumChecks; ++i) failed[i] += o.failed[i];
  }
  void Emit(FILE* out) const {
    fputc('{', out);
    for (int i = 0; i < kNumChecks; ++i) {
      fprintf(out, "%s\"%s\":%llu", i ? "," : "", CheckName(i),
              static_cast<unsigned long long>(failed[i]));
    }
    fputc('}', out);
  }
};

// Alignment C17 requires of malloc(size): the largest power of two that
// is <= size, capped at alignof(max_align_t) = 16.
inline size_t C17Alignment(size_t size) {
  if (size >= 16) return 16;
  size_t a = 1;
  while (a * 2 <= size) a *= 2;
  return a;
}

// ---- Block tags -------------------------------------------------------------

// Writes a tag into the first and last 8 bytes of a block (one copy when
// the block is shorter than 16 bytes). Requires size >= 8.
inline void WriteTag(void* p, size_t size, uint64_t tag) {
  char* c = static_cast<char*>(p);
  memcpy(c, &tag, 8);
  if (size >= 16) memcpy(c + size - 8, &tag, 8);
}

inline bool TagIntact(const void* p, size_t size, uint64_t tag) {
  const char* c = static_cast<const char*>(p);
  uint64_t head, tail = tag;
  memcpy(&head, c, 8);
  if (size >= 16) memcpy(&tail, c + size - 8, 8);
  return head == tag && tail == tag;
}

// ---- Command line -------------------------------------------------------------

struct Args {
  const char* workload = "";
  uint64_t seed = 1;
  uint64_t rounds = 0;        // timed rounds; 0: the workload's default
  bool trace = false;
  bool summary = false;      // print the input make-up and exit
  const char* span_path = nullptr;  // traced run: where spans are written

  static Args Parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
      const char* k = argv[i];
      const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
      if (strcmp(k, "--summary") == 0) {
        a.summary = true;
        continue;
      }
      if (v == nullptr) {
        fprintf(stderr, "missing value for %s\n", k);
        exit(2);
      }
      ++i;
      if (strcmp(k, "--workload") == 0) {
        a.workload = v;
      } else if (strcmp(k, "--seed") == 0) {
        a.seed = strtoull(v, nullptr, 10);
      } else if (strcmp(k, "--rounds") == 0) {
        a.rounds = strtoull(v, nullptr, 10);
      } else if (strcmp(k, "--trace") == 0) {
        a.trace = strtol(v, nullptr, 10) != 0;
      } else if (strcmp(k, "--spans") == 0) {
        a.span_path = v;
      } else {
        fprintf(stderr, "unknown flag %s\n", k);
        exit(2);
      }
    }
    return a;
  }
};

// Worker threads for multi-threaded workloads: one per CPU this process
// may run on (what nproc reports), at most 8.
inline int WorkerCount() {
  cpu_set_t set;
  long n = sched_getaffinity(0, sizeof(set), &set) == 0
               ? CPU_COUNT(&set)
               : sysconf(_SC_NPROCESSORS_ONLN);
  if (n < 1) n = 1;
  return n > 8 ? 8 : static_cast<int>(n);
}

// ---- Report ---------------------------------------------------------------

// The phase timestamps every driver reports. The runner derives set-up
// time as first_call_ns - (its spawn time) - (gen_end_ns - gen_start_ns).
struct Phases {
  uint64_t gen_start_ns = 0;
  uint64_t gen_end_ns = 0;
  uint64_t first_call_ns = 0;  // start of the timed phase
  uint64_t end_ns = 0;         // end of the timed phase
};

// Wall time of each timed round. The runner divides a round's calls by
// the median round time, which a burst of noise from other processes on
// the host moves much less than the total.
class RoundTimes {
 public:
  void Reserve(size_t n) { ns_.reserve(n); }
  void Add(uint64_t ns) { ns_.push_back(ns); }
  const std::vector<uint64_t>& ns() const { return ns_; }
  void Emit(FILE* out) const {
    fputs(",\"round_ns\":[", out);
    for (size_t i = 0; i < ns_.size(); ++i) {
      fprintf(out, "%s%llu", i ? "," : "",
              static_cast<unsigned long long>(ns_[i]));
    }
    fputc(']', out);
  }

 private:
  std::vector<uint64_t> ns_;
};

inline void EmitPhases(FILE* out, const Phases& p) {
  fprintf(out,
          "\"gen_start_ns\":%llu,\"gen_end_ns\":%llu,"
          "\"first_call_ns\":%llu,\"end_ns\":%llu",
          static_cast<unsigned long long>(p.gen_start_ns),
          static_cast<unsigned long long>(p.gen_end_ns),
          static_cast<unsigned long long>(p.first_call_ns),
          static_cast<unsigned long long>(p.end_ns));
}

}  // namespace allocbench

#endif  // ALLOCBENCH_HARNESS_H_

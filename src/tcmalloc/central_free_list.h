// Central free list (Section 4.3).
//
// One central free list per size class manages spans and hands objects to
// the transfer cache. A span can only be returned to the page heap when
// every object on it is free, so a single long-lived object strands the
// whole span. The baseline keeps spans in one linked list and allocates
// from the front — which may pick nearly-empty spans that were about to be
// released. The paper's redesign keeps L=8 lists indexed by occupancy
// (max(0, L - log2(live))) and allocates from the fullest spans first,
// densely packing allocations onto spans least likely to be released.

#ifndef WSC_TCMALLOC_CENTRAL_FREE_LIST_H_
#define WSC_TCMALLOC_CENTRAL_FREE_LIST_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "tcmalloc/size_classes.h"
#include "tcmalloc/span.h"
#include "telemetry/registry.h"
#include "trace/flight_recorder.h"

namespace wsc::tcmalloc {

// Occupancy list index for a span with `live` allocated objects (live >= 1)
// among `num_lists` lists. Paper: index = max(0, L - log2(A)); with
// zero-based lists this is max(0, (L-1) - floor(log2(A))), so spans with
// fewer live allocations land in higher-indexed lists and fine granularity
// is preserved at the low-occupancy end (spans with 132 or 255 live
// allocations share a list).
inline int OccupancyListIndex(int live, int num_lists) {
  const int log2_live = std::bit_width(static_cast<unsigned>(live)) - 1;
  const int idx = (num_lists - 1) - log2_live;
  return idx < 0 ? 0 : idx;
}

// Where central free lists obtain and return spans (implemented by the
// page heap).
class SpanSource {
 public:
  virtual ~SpanSource() = default;

  // Allocates a new span for size class `cls` (all objects free).
  virtual Span* NewSpan(int cls) = 0;

  // Returns a fully-free span to the page heap, which frees its pages.
  virtual void ReturnSpan(Span* span) = 0;
};

// Per-size-class central free list statistics.
struct CentralFreeListStats {
  uint64_t fetched_spans = 0;   // spans obtained from the page heap
  uint64_t returned_spans = 0;  // spans returned (fully free)
  uint64_t allocations = 0;     // objects handed out
  uint64_t deallocations = 0;   // objects returned
};

// Central free list for one size class.
class CentralFreeList {
 public:
  // `num_lists` > 1 enables span prioritization.
  CentralFreeList(int cls, const SizeClassInfo& info, int num_lists,
                  SpanSource* source);
  ~CentralFreeList();

  CentralFreeList(const CentralFreeList&) = delete;
  CentralFreeList& operator=(const CentralFreeList&) = delete;

  // Removes up to `n` objects into `out`, fetching spans from the page heap
  // as needed. Returns the number of objects produced: n in the common
  // case, fewer (possibly zero) when the page heap cannot grow (fault
  // injection or simulated OOM) — callers proceed with the partial batch
  // or surface the failure upward.
  int RemoveRange(uintptr_t* out, int n);

  // Span fetches refused by the page heap (growth denied).
  uint64_t span_fetch_failures() const { return span_fetch_failures_; }

  // Returns one object to its span. `span` must belong to this free list's
  // size class (the allocator resolves it via the pagemap). Fully-free
  // spans are returned to the page heap.
  void InsertObject(Span* span, uintptr_t obj);

  // Bytes of free (unallocated) objects sitting in partially-used spans —
  // this tier's external fragmentation.
  size_t FreeObjectBytes() const {
    return free_objects_ * info_.size;
  }

  size_t num_spans() const { return num_spans_; }
  size_t num_live_spans_with_free_objects() const;

  const CentralFreeListStats& stats() const { return stats_; }

  // Span return rate: fraction of fetched spans that have been returned.
  double SpanReturnRate() const;

  // --- Telemetry for Figs. 13/16 ---
  // Snapshot of (span id, live objects) for every span currently owned.
  struct SpanSnapshot {
    uint64_t span_id;
    int live_objects;
  };
  std::vector<SpanSnapshot> SnapshotSpans() const;

  // Span ids returned to the page heap since the last call (cleared).
  std::vector<uint64_t> DrainReturnedSpanIds();

  int size_class() const { return cls_; }
  const SizeClassInfo& info() const { return info_; }

  // Publishes this tier's metrics (component "central_free_list") into
  // `registry`. Per-class instances accumulate into the same metrics, so
  // the snapshot carries the tier aggregate.
  void ContributeTelemetry(telemetry::MetricRegistry& registry) const;

  // Attaches (or detaches, with nullptr) the flight recorder this tier
  // emits kCflSpanAllocate/Return events into.
  void set_flight_recorder(trace::FlightRecorder* recorder) {
    trace_ = recorder;
  }

 private:
  // Occupancy list index for a span with `live` allocated objects (live>=1).
  int ListIndexFor(int live) const;

  // Moves `span` to the list matching its occupancy (and out of full_).
  void Relist(Span* span);

  int cls_;
  SizeClassInfo info_;
  int num_lists_;
  SpanSource* source_;

  std::vector<SpanList> lists_;  // index 0 = most occupied
  SpanList full_;                // spans with no free objects
  size_t num_spans_ = 0;
  size_t free_objects_ = 0;

  CentralFreeListStats stats_;
  uint64_t span_fetch_failures_ = 0;
  std::vector<uint64_t> returned_span_ids_;
  trace::FlightRecorder* trace_ = nullptr;
};

}  // namespace wsc::tcmalloc

#endif  // WSC_TCMALLOC_CENTRAL_FREE_LIST_H_

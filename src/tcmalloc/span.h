// Span: a contiguous run of TCMalloc pages carved into equal-size objects.
//
// A span belongs to exactly one size class (or none, for large allocations
// that bypass the caches). The central free list hands objects out of spans
// and returns whole spans to the page heap only when every object is free —
// which is why a single long-lived object strands a whole span (Section 4.3).
//
// Because this allocator manages a virtual arena (no real backing memory),
// per-object free/live state is tracked in a metadata bitmap rather than by
// threading a freelist through the objects themselves. The bitmap also gives
// us double-free detection for free.

#ifndef WSC_TCMALLOC_SPAN_H_
#define WSC_TCMALLOC_SPAN_H_

#include <cstdint>
#include <vector>

#include "tcmalloc/pages.h"

namespace wsc::tcmalloc {

// Allocation state of one span.
class Span {
 public:
  // Small-object span for `size_class` with `objects_per_span` objects of
  // `object_size` bytes each.
  Span(PageId first_page, Length num_pages, int size_class,
       size_t object_size, int objects_per_span);

  // Large span (single allocation, no size class).
  Span(PageId first_page, Length num_pages);

  PageId first_page() const { return first_page_; }
  Length num_pages() const { return num_pages_; }
  uintptr_t start_addr() const { return first_page_.Addr(); }
  size_t span_bytes() const { return LengthToBytes(num_pages_); }

  // -1 for large spans.
  int size_class() const { return size_class_; }
  bool is_large() const { return size_class_ < 0; }

  size_t object_size() const { return object_size_; }
  int capacity() const { return capacity_; }

  // Objects currently allocated to the application from this span.
  int live_objects() const { return live_; }
  // Objects handed out of the span but cached in upper tiers also count as
  // "allocated" from the span's perspective; the span cannot be returned
  // until they come back.
  bool empty() const { return live_ == 0; }
  bool full() const { return live_ == capacity_; }
  int free_objects() const { return capacity_ - live_; }

  // Pops one free object; span must not be full.
  uintptr_t AllocateObject();

  // Returns an object to the span; `addr` must be a live object address
  // belonging to this span (fatal otherwise — double free / wild pointer).
  void FreeObject(uintptr_t addr);

  // True if `addr` is the base address of an object currently live.
  bool IsLiveObject(uintptr_t addr) const;

  // Address of object `index`.
  uintptr_t ObjectAddr(int index) const {
    return start_addr() + static_cast<uintptr_t>(index) * object_size_;
  }

  // Intrusive doubly-linked list hooks (used by the central free list and
  // the page heap; a span is on at most one list at a time).
  Span* prev = nullptr;
  Span* next = nullptr;

  // Unique id assigned by the page heap at creation; used by telemetry to
  // track span return events across metadata reuse (Figs. 13 and 16).
  uint64_t span_id = 0;

  // Index of the occupancy list currently holding this span in the central
  // free list (-1 when not listed). Maintained by CentralFreeList.
  int list_index = -1;

  // Live sampled objects in this span. Allocator::Free consults the
  // sampler only while this is nonzero, so unsampled frees pay no lookup
  // there (TCMalloc likewise identifies a sampled object from its span).
  int sampled_objects = 0;

 private:
  int IndexOf(uintptr_t addr) const;

  PageId first_page_;
  Length num_pages_;
  int size_class_;
  size_t object_size_;
  int capacity_;
  int live_ = 0;
  int next_hint_ = 0;  // rotating search start for the free-bit scan
  std::vector<uint64_t> live_bits_;  // bit i set => object i is allocated
};

// Intrusive list of spans. Head sentinel-free; O(1) push/remove.
class SpanList {
 public:
  bool empty() const { return head_ == nullptr; }
  Span* front() const { return head_; }
  size_t size() const { return size_; }

  // Pushes to the front.
  void PushFront(Span* span);

  // Removes a span known to be on this list.
  void Remove(Span* span);

  // Pops the front span (list must be non-empty).
  Span* PopFront();

 private:
  Span* head_ = nullptr;
  size_t size_ = 0;
};

}  // namespace wsc::tcmalloc

#endif  // WSC_TCMALLOC_SPAN_H_

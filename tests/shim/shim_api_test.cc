// API-semantics tests for libwscmalloc.so, run with the shim linked into
// the test binary itself: the executable defines no malloc, and
// libwscmalloc precedes libc in link order, so every allocation in this
// process — including gtest's own — routes through the shim exactly as
// under LD_PRELOAD. wscmalloc_is_active() proves it.
//
// These tests pin the POSIX/glibc contract of each entry point (realloc
// grow/shrink, posix_memalign error codes, calloc overflow, zero sizes,
// usable size) rather than allocator internals, which
// tests/tcmalloc/real_memory_mode_test.cc covers.

#include <malloc.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "gtest/gtest.h"

extern "C" {
int wscmalloc_is_active();
const char* wscmalloc_backend();
size_t wscmalloc_release_memory(size_t bytes);
size_t wscmalloc_stats_json(char* buf, size_t cap);
}

namespace {

TEST(ShimApi, ShimIsInterposed) {
  EXPECT_EQ(wscmalloc_is_active(), 1);
  EXPECT_STREQ(wscmalloc_backend(), "real-memory");
}

TEST(ShimApi, MallocZeroIsUniqueAndFreeable) {
  void* a = malloc(0);
  void* b = malloc(0);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  free(a);
  free(b);
}

TEST(ShimApi, UsableSizeCoversRequest) {
  for (size_t size : {1ul, 7ul, 16ul, 57ul, 1024ul, 300000ul, 1048576ul}) {
    void* p = malloc(size);
    ASSERT_NE(p, nullptr) << size;
    EXPECT_GE(malloc_usable_size(p), size);
    // The full usable extent must actually be writable.
    std::memset(p, 0xAB, malloc_usable_size(p));
    free(p);
  }
  EXPECT_EQ(malloc_usable_size(nullptr), 0u);
}

TEST(ShimApi, CallocZeroesAndRejectsOverflow) {
  constexpr size_t kN = 1000;
  unsigned char* p = static_cast<unsigned char*>(calloc(kN, 7));
  ASSERT_NE(p, nullptr);
  for (size_t i = 0; i < kN * 7; ++i) ASSERT_EQ(p[i], 0) << i;
  free(p);

  errno = 0;
  volatile size_t overflow_n = SIZE_MAX / 2;  // opaque to -Walloc-size
  EXPECT_EQ(calloc(overflow_n, 3), nullptr);
  EXPECT_EQ(errno, ENOMEM);
}

TEST(ShimApi, SmallMallocIsC17Aligned) {
  // C17 requires 16-byte alignment for every request above 16 bytes;
  // the 8-byte-spaced classes from 24 to 120 B must never be handed out.
  for (size_t size : {24ul, 40ul, 56ul, 72ul, 88ul, 100ul, 120ul}) {
    void* blocks[64];
    for (void*& p : blocks) {
      p = malloc(size);
      ASSERT_NE(p, nullptr) << size;
      EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 16, 0u) << size;
    }
    for (void* p : blocks) free(p);
  }
}

TEST(ShimApi, CallocOfReleasedRangeReadsZero) {
  constexpr size_t kBytes = size_t{1} << 20;
  for (bool release : {false, true}) {
    unsigned char* p = static_cast<unsigned char*>(malloc(kBytes));
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xAB, kBytes);
    free(p);
    // Without the release the range comes back resident and dirty (the
    // shim must clear it); with it, released whole (no memset needed).
    if (release) wscmalloc_release_memory(~size_t{0});
    unsigned char* q = static_cast<unsigned char*>(calloc(1, kBytes));
    ASSERT_NE(q, nullptr);
    for (size_t i = 0; i < kBytes; ++i) {
      ASSERT_EQ(q[i], 0) << "release=" << release << " byte " << i;
    }
    free(q);
  }
}

TEST(ShimApi, LargeReallocKeepsContents) {
  constexpr size_t kBytes = size_t{1} << 20;
  unsigned char* p = static_cast<unsigned char*>(malloc(kBytes));
  ASSERT_NE(p, nullptr);
  for (size_t i = 0; i < kBytes; ++i) p[i] = static_cast<unsigned char>(i);
  // Grow, shrink, and grow again: in place or moved, the prefix survives.
  for (size_t size : {kBytes + kBytes / 4, kBytes / 2 + 1, 3 * kBytes}) {
    size_t keep = std::min(size, kBytes / 2);
    p = static_cast<unsigned char*>(realloc(p, size));
    ASSERT_NE(p, nullptr) << size;
    EXPECT_GE(malloc_usable_size(p), size);
    for (size_t i = 0; i < keep; ++i) {
      ASSERT_EQ(p[i], static_cast<unsigned char>(i)) << size << ":" << i;
    }
  }
  free(p);
}

TEST(ShimApi, ReallocGrowsPreservingContents) {
  char* p = static_cast<char*>(malloc(64));
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x5C, 64);
  // Grow through several classes and into the large path.
  for (size_t size : {128ul, 4096ul, 300000ul}) {
    p = static_cast<char*>(realloc(p, size));
    ASSERT_NE(p, nullptr) << size;
    for (size_t i = 0; i < 64; ++i) ASSERT_EQ(p[i], 0x5C) << size << ":" << i;
    EXPECT_GE(malloc_usable_size(p), size);
  }
  free(p);
}

TEST(ShimApi, ReallocShrinkInPlaceWhenClose) {
  char* p = static_cast<char*>(malloc(1024));
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x11, 1024);
  const size_t usable = malloc_usable_size(p);
  // A shrink that still fits the same class must not move the block.
  char* q = static_cast<char*>(realloc(p, usable - 8));
  EXPECT_EQ(q, p);
  free(q);
}

TEST(ShimApi, ReallocNullAndZeroEdges) {
  // realloc(nullptr, n) == malloc(n).
  void* p = realloc(nullptr, 48);
  ASSERT_NE(p, nullptr);
  // realloc(p, 0) frees and returns nullptr (glibc behaviour).
  EXPECT_EQ(realloc(p, 0), nullptr);
}

TEST(ShimApi, ReallocArrayRejectsOverflow) {
  errno = 0;
  volatile size_t overflow_n = SIZE_MAX / 4;  // opaque to -Walloc-size
  EXPECT_EQ(reallocarray(nullptr, overflow_n, 8), nullptr);
  EXPECT_EQ(errno, ENOMEM);
  void* p = reallocarray(nullptr, 16, 32);
  ASSERT_NE(p, nullptr);
  EXPECT_GE(malloc_usable_size(p), 512u);
  free(p);
}

TEST(ShimApi, PosixMemalignSweep) {
  for (size_t align = sizeof(void*); align <= (size_t{4} << 20); align *= 2) {
    for (size_t size : {1ul, 64ul, 4096ul, 300000ul}) {
      void* p = nullptr;
      ASSERT_EQ(posix_memalign(&p, align, size), 0)
          << "align=" << align << " size=" << size;
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u)
          << "align=" << align << " size=" << size;
      std::memset(p, 0x77, size);
      free(p);
    }
  }
}

TEST(ShimApi, PosixMemalignErrorCodes) {
  void* p = reinterpret_cast<void*>(0x1);
  // Non-power-of-two and sub-pointer alignments are EINVAL, p untouched.
  EXPECT_EQ(posix_memalign(&p, 3, 64), EINVAL);
  EXPECT_EQ(posix_memalign(&p, sizeof(void*) / 2, 64), EINVAL);
  EXPECT_EQ(p, reinterpret_cast<void*>(0x1));
}

TEST(ShimApi, AlignedAllocAndValloc) {
  void* p = aligned_alloc(256, 512);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 256, 0u);
  free(p);

  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  p = valloc(100);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % page, 0u);
  free(p);

  // pvalloc rounds the size up to a whole page.
  p = pvalloc(1);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % page, 0u);
  EXPECT_GE(malloc_usable_size(p), page);
  free(p);
}

TEST(ShimApi, AbsurdSizeFailsWithEnomem) {
  errno = 0;
  EXPECT_EQ(malloc(size_t{1} << 60), nullptr);
  EXPECT_EQ(errno, ENOMEM);
  // The allocator must remain serviceable after an OOM refusal.
  void* p = malloc(64);
  ASSERT_NE(p, nullptr);
  free(p);
}

TEST(ShimApi, StatsJsonIsWellFormedAndBalances) {
  char buf[2048];
  const size_t n = wscmalloc_stats_json(buf, sizeof(buf));
  ASSERT_GT(n, 0u);
  ASSERT_LT(n, sizeof(buf));
  EXPECT_EQ(buf[0], '{');
  EXPECT_EQ(buf[n - 1], '}');
  EXPECT_NE(std::strstr(buf, "\"active\":true"), nullptr) << buf;
  EXPECT_NE(std::strstr(buf, "\"backend\":\"real-memory\""), nullptr) << buf;
  EXPECT_NE(std::strstr(buf, "\"allocations\":"), nullptr) << buf;
  EXPECT_NE(std::strstr(buf, "\"large_free_ranges\":"), nullptr) << buf;
  // allocbench and other scrapers read the line into 1 KiB buffers.
  EXPECT_LT(n, 512u);
}

TEST(ShimApi, ReleaseMemoryReturnsConfirmedBytes) {
  // Build a releasable large population, free it, then release: the
  // confirmed count must be page-granular and not exceed what was freed.
  constexpr size_t kBlock = 1 << 20;
  constexpr int kBlocks = 32;
  void* blocks[kBlocks];
  for (int i = 0; i < kBlocks; ++i) {
    blocks[i] = malloc(kBlock);
    ASSERT_NE(blocks[i], nullptr);
    std::memset(blocks[i], 0xEF, kBlock);
  }
  for (int i = 0; i < kBlocks; ++i) free(blocks[i]);
  const size_t released = wscmalloc_release_memory(~size_t{0});
  EXPECT_GT(released, 0u);
  EXPECT_EQ(released % 4096, 0u);
  // A second sweep with nothing new freed confirms nothing twice.
  EXPECT_EQ(wscmalloc_release_memory(~size_t{0}), 0u);
}

}  // namespace

#ifndef LAKE_SHM_ARENA_H
#define LAKE_SHM_ARENA_H

/**
 * @file
 * lakeShm: the shared-memory arena between kernel applications and lakeD.
 *
 * The real system reserves a contiguous DMA region with
 * dma_alloc_coherent at module load and mmaps the same physical pages
 * into the lakeD process; "a best-fit based memory allocator algorithm
 * is used" (§6). Here one heap allocation plays the part of the CMA
 * region; the kernel context and the user context both hold the same
 * ShmArena, so a buffer allocated on one side is readable on the other
 * without copies — the zero-copy property the paper relies on.
 *
 * Cross-boundary references travel as byte offsets (ShmOffset), because
 * in the real system kernel virtual addresses and lakeD's mmap addresses
 * differ even though they name the same bytes.
 */

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <utility>

namespace lake::shm {

/** Position of a buffer within the arena, valid in both address spaces. */
using ShmOffset = std::uint64_t;

/** Sentinel for "no buffer". */
constexpr ShmOffset kNullOffset = ~0ull;

/**
 * Contiguous region + best-fit allocator.
 *
 * Thread-safe: capture paths in kernel context and completion paths in
 * lakeD may allocate concurrently.
 */
class ShmArena
{
  public:
    /** Allocation alignment; matches a cache line. */
    static constexpr std::size_t kAlign = 64;

    /** @param capacity size of the shared region in bytes */
    explicit ShmArena(std::size_t capacity);

    ShmArena(const ShmArena &) = delete;
    ShmArena &operator=(const ShmArena &) = delete;

    /**
     * Allocates @p bytes using best-fit: the smallest free block that
     * satisfies the request, lowest offset among equals. Served from a
     * size-ordered index in O(log n) — placement is bit-identical to
     * the original linear scan over the offset map (the property test
     * in shm_test.cc holds the two algorithms together).
     * @return offset of the new buffer, or kNullOffset when no free
     *         block is large enough.
     */
    ShmOffset alloc(std::size_t bytes);

    /** Releases a buffer previously returned by alloc. */
    void free(ShmOffset offset);

    /** Pointer to a buffer (identical bytes from either context). */
    void *
    at(ShmOffset offset)
    {
        return region_ + offset;
    }

    /** Const pointer to a buffer. */
    const void *
    at(ShmOffset offset) const
    {
        return region_ + offset;
    }

    /** Size originally requested for a live buffer; 0 if unknown. */
    std::size_t sizeOf(ShmOffset offset) const;

    /**
     * True when [offset, offset+bytes) lies entirely inside one live
     * allocation. This is lakeD's defense against malformed commands:
     * a decoder-supplied offset/length pair must name bytes the kernel
     * side actually allocated before at() may be dereferenced.
     * Interior offsets are accepted; spans across allocations are not.
     */
    bool validRange(ShmOffset offset, std::size_t bytes) const;

    /** Total region capacity. */
    std::size_t capacity() const { return capacity_; }
    /** Bytes currently handed out (after alignment rounding). */
    std::size_t used() const;
    /**
     * Peak of used() over the arena's lifetime. A recycling carve-out
     * (the streaming buffer pool) must hold this flat across
     * acquire/release cycles: growth here means the free index failed
     * to coalesce and the same logical buffers landed at new offsets.
     */
    std::size_t highwater() const;
    /** Number of live allocations. */
    std::size_t liveAllocs() const;
    /** Size of the largest free block (fragmentation probe). */
    std::size_t largestFree() const;

  private:
    /** Rounds a size up to the allocation alignment. */
    static std::size_t roundUp(std::size_t n);

    /** Inserts a free block into both indexes. */
    void insertFree(ShmOffset offset, std::size_t size);
    /** Removes a free block from both indexes. */
    void eraseFree(ShmOffset offset, std::size_t size);

    /** Releases calloc'd storage. */
    struct Free
    {
        void operator()(void *p) const { std::free(p); }
    };

    mutable std::mutex mu_;
    /**
     * The region's zero-filled storage, from calloc: the allocator
     * hands out fresh pages that are zero already, so a Lake's 128 MiB
     * region is resident only where buffers have been written, and
     * boot does not write every byte.
     */
    std::unique_ptr<std::uint8_t, Free> storage_;
    /**
     * Cache-line-aligned base inside storage_: every offset alloc()
     * hands out is a kAlign multiple, so the *base* must sit on a
     * cache line too or no carve-out (SoA column planes, GEMM staging
     * buffers) actually gets the alignment the offsets promise.
     */
    std::uint8_t *region_ = nullptr;
    std::size_t capacity_ = 0;
    /** Free blocks by offset, for neighbour coalescing. */
    std::map<ShmOffset, std::size_t> free_by_offset_;
    /**
     * The same free blocks ordered by (size, offset): lower_bound on
     * (need, 0) lands on the best-fit block — smallest sufficient
     * size, lowest offset among equal sizes — in O(log n), exactly the
     * block the linear scan used to pick.
     */
    std::set<std::pair<std::size_t, ShmOffset>> free_by_size_;
    /**
     * Live allocation sizes (rounded) by offset. Ordered so
     * validRange can find the allocation containing an arbitrary
     * (possibly interior) offset with one upper_bound.
     */
    std::map<ShmOffset, std::size_t> live_;
    std::size_t used_ = 0;
    std::size_t highwater_ = 0;
};

} // namespace lake::shm

#endif // LAKE_SHM_ARENA_H

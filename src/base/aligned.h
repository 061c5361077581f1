#ifndef LAKE_BASE_ALIGNED_H
#define LAKE_BASE_ALIGNED_H

/**
 * @file
 * Cache-line-aligned allocation for hot numeric containers.
 *
 * The tiled GEMM microkernels and the SoA capture plane both assume
 * their base pointers sit on cache-line boundaries: the compute layer
 * so vector loads never straddle lines, the column store so writers of
 * different columns never share one. std::vector<float> guarantees
 * only alignof(float); AlignedAlloc upgrades any std container to a
 * fixed alignment. It over-allocates from the plain operator new and
 * aligns by hand: glibc serves the aligned operator new through
 * memalign, several times slower per block, and Mlp::run allocates
 * three aligned matrices per batch.
 */

#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <vector>

namespace lake::base {

/** Cache-line size every aligned container in LAKE assumes. */
constexpr std::size_t kCacheLine = 64;

/**
 * Minimal std-compatible allocator handing out @p Align-aligned
 * storage. Alignment must be a power of two at least alignof(T).
 */
template <typename T, std::size_t Align = kCacheLine>
struct AlignedAlloc
{
    static_assert((Align & (Align - 1)) == 0, "alignment not a power of two");
    static_assert(Align >= alignof(T), "alignment below the type's own");
    static_assert(Align >= sizeof(void *),
                  "alignment below the stored base pointer's size");

    using value_type = T;

    AlignedAlloc() noexcept = default;
    template <typename U>
    AlignedAlloc(const AlignedAlloc<U, Align> &) noexcept
    {}

    template <typename U>
    struct rebind
    {
        using other = AlignedAlloc<U, Align>;
    };

    /**
     * Takes n·sizeof(T) + Align bytes from the plain operator new and
     * returns the first Align boundary at least one pointer past their
     * start; the pointer-sized slot just before it keeps that start
     * for deallocate. The plain new returns storage aligned to at least
     * a pointer, so the boundary lies sizeof(void *)..Align bytes in.
     */
    T *
    allocate(std::size_t n)
    {
        if (n > (std::numeric_limits<std::size_t>::max() - Align) / sizeof(T))
            throw std::bad_array_new_length();
        void *base = ::operator new(n * sizeof(T) + Align);
        const std::uintptr_t at =
            (reinterpret_cast<std::uintptr_t>(base) + sizeof(void *) +
             Align - 1) &
            ~static_cast<std::uintptr_t>(Align - 1);
        void **aligned = reinterpret_cast<void **>(at);
        aligned[-1] = base;
        return reinterpret_cast<T *>(aligned);
    }

    void
    deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(reinterpret_cast<void **>(p)[-1]);
    }

    friend bool
    operator==(const AlignedAlloc &, const AlignedAlloc &) noexcept
    {
        return true;
    }
    friend bool
    operator!=(const AlignedAlloc &, const AlignedAlloc &) noexcept
    {
        return false;
    }
};

/** A std::vector whose data() is cache-line aligned. */
template <typename T>
using AlignedVec = std::vector<T, AlignedAlloc<T>>;

} // namespace lake::base

#endif // LAKE_BASE_ALIGNED_H

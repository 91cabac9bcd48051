/**
 * @file
 * A binary buddy allocator over simulated physical memory.
 *
 * This is the substrate beneath the OS memory manager: transparent
 * superpage allocation succeeds only when an aligned, contiguous 2MB
 * (order-9) block is free, exactly as in Linux. Fragmentation induced by
 * memhog (Section III-C / Fig 3) manifests as depleted high-order free
 * lists.
 */

#ifndef SEESAW_MEM_BUDDY_ALLOCATOR_HH
#define SEESAW_MEM_BUDDY_ALLOCATOR_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"

namespace seesaw {

/**
 * Buddy allocator managing 4KB frames. Orders are powers of two of the
 * base frame: order 0 = 4KB, order 9 = 2MB, order 18 = 1GB.
 */
class BuddyAllocator
{
  public:
    static constexpr unsigned kFrameBits = 12;
    static constexpr std::uint64_t kFrameBytes = 1ULL << kFrameBits;
    static constexpr unsigned kMaxOrder = 18; // 1GB

    /** Manage @p mem_bytes of physical memory (rounded down to 4KB). */
    explicit BuddyAllocator(std::uint64_t mem_bytes);

    /**
     * Allocate a naturally aligned block of 2^order frames: the
     * lowest-addressed free block of the lowest non-empty order at or
     * above @p order, split down as needed. Every memory image and
     * golden result depends on this choice.
     * @return The first frame number, or nullopt if no block exists.
     */
    std::optional<std::uint64_t> allocate(unsigned order);

    /**
     * Allocate a specific naturally aligned block if it is entirely
     * free. Used by the compaction daemon to claim a region it just
     * emptied. @return True on success.
     */
    bool allocateSpecific(std::uint64_t frame, unsigned order);

    /**
     * Release a block previously returned by allocate(). Every frame of
     * the block must be allocated and inside physical memory.
     */
    void free(std::uint64_t frame, unsigned order);

    /** @return Whether the single frame @p frame is currently free. */
    bool isFrameFree(std::uint64_t frame) const;

    /** @return Total frames under management. */
    std::uint64_t totalFrames() const { return totalFrames_; }

    /** @return Currently free frames. */
    std::uint64_t freeFrames() const { return freeFrames_; }

    /** @return Number of free blocks on the @p order free list. */
    std::size_t freeBlocksAt(unsigned order) const;

    /** @return Free frames contained in blocks of at least @p order. */
    std::uint64_t freeFramesAtOrAbove(unsigned order) const;

    /**
     * Fragmentation index in [0,1]: 0 when all free memory sits in
     * blocks of at least @p order, 1 when none does.
     */
    double fragmentationIndex(unsigned order) const;

    /** Frame index of the buddy of @p frame at @p order. */
    static std::uint64_t buddyOf(std::uint64_t frame, unsigned order)
    {
        return frame ^ (std::uint64_t{1} << order);
    }

    /** Convert a frame number to a byte address. */
    static Addr frameToAddr(std::uint64_t frame)
    {
        return frame << kFrameBits;
    }

    /** Convert a byte address to its frame number. */
    static std::uint64_t addrToFrame(Addr addr)
    {
        return addr >> kFrameBits;
    }

  private:
    /**
     * The free blocks of one order as a hierarchical bitmap. Bit i of
     * the leaf level means block i is free; every level above holds
     * one bit per non-zero word of the level below, up to a single top
     * word. Each operation is one word update per level, and the
     * lowest free block is one count-trailing-zeros per level away.
     */
    class FreeBlockBitmap
    {
      public:
        /** An empty bitmap over block indices [0, @p blocks). */
        explicit FreeBlockBitmap(std::uint64_t blocks);

        bool
        test(std::uint64_t block) const
        {
            return (levels_.front()[block >> 6] >> (block & 63)) & 1;
        }

        void set(std::uint64_t block);
        void reset(std::uint64_t block);

        /** @return The lowest set block; the bitmap must not be empty. */
        std::uint64_t lowest() const;

        /** @return Number of set blocks. */
        std::size_t count() const { return count_; }

      private:
        /** levels_[0] is the leaf level; levels_.back() is one word. */
        std::vector<std::vector<std::uint64_t>> levels_;
        std::size_t count_ = 0;
    };

    std::uint64_t totalFrames_;
    std::uint64_t freeFrames_ = 0;

    /** Free blocks indexed by order; bit i of order k is frame i << k. */
    std::vector<FreeBlockBitmap> freeLists_;

    /** Per-frame free flag to answer isFrameFree in O(1). */
    std::vector<bool> frameFree_;

    void markRange(std::uint64_t frame, unsigned order, bool free_state);
    void insertBlock(std::uint64_t frame, unsigned order);
    void removeBlock(std::uint64_t frame, unsigned order);

    /** Find the free block (start, order) containing @p frame. */
    std::optional<std::pair<std::uint64_t, unsigned>>
    findContainingFreeBlock(std::uint64_t frame, unsigned min_order) const;
};

} // namespace seesaw

#endif // SEESAW_MEM_BUDDY_ALLOCATOR_HH

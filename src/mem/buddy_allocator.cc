#include "mem/buddy_allocator.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace seesaw {

BuddyAllocator::FreeBlockBitmap::FreeBlockBitmap(std::uint64_t blocks)
{
    std::uint64_t words = std::max<std::uint64_t>(1, (blocks + 63) / 64);
    levels_.emplace_back(words, 0);
    while (words > 1) {
        words = (words + 63) / 64;
        levels_.emplace_back(words, 0);
    }
}

void
BuddyAllocator::FreeBlockBitmap::set(std::uint64_t block)
{
    // Climb only while a word turns non-zero: its summary bit was clear.
    for (auto &level : levels_) {
        std::uint64_t &word = level[block >> 6];
        const bool was_empty = word == 0;
        word |= std::uint64_t{1} << (block & 63);
        if (!was_empty)
            break;
        block >>= 6;
    }
    ++count_;
}

void
BuddyAllocator::FreeBlockBitmap::reset(std::uint64_t block)
{
    // Climb only while a word turns zero: its summary bit must clear.
    for (auto &level : levels_) {
        std::uint64_t &word = level[block >> 6];
        word &= ~(std::uint64_t{1} << (block & 63));
        if (word != 0)
            break;
        block >>= 6;
    }
    --count_;
}

std::uint64_t
BuddyAllocator::FreeBlockBitmap::lowest() const
{
    std::uint64_t block = 0;
    for (auto level = levels_.rbegin(); level != levels_.rend(); ++level)
        block = (block << 6) | std::countr_zero((*level)[block]);
    return block;
}

BuddyAllocator::BuddyAllocator(std::uint64_t mem_bytes)
    : totalFrames_(mem_bytes >> kFrameBits),
      frameFree_(totalFrames_, false)
{
    SEESAW_ASSERT(totalFrames_ > 0, "empty physical memory");
    freeLists_.reserve(kMaxOrder + 1);
    for (unsigned order = 0; order <= kMaxOrder; ++order) {
        const std::uint64_t size = std::uint64_t{1} << order;
        freeLists_.emplace_back((totalFrames_ + size - 1) >> order);
    }

    // Seed the free lists by carving memory into maximal aligned blocks.
    std::uint64_t frame = 0;
    while (frame < totalFrames_) {
        unsigned order = kMaxOrder;
        while (order > 0 &&
               ((frame & ((std::uint64_t{1} << order) - 1)) != 0 ||
                frame + (std::uint64_t{1} << order) > totalFrames_)) {
            --order;
        }
        insertBlock(frame, order);
        markRange(frame, order, true);
        freeFrames_ += std::uint64_t{1} << order;
        frame += std::uint64_t{1} << order;
    }
}

void
BuddyAllocator::markRange(std::uint64_t frame, unsigned order,
                          bool free_state)
{
    // Every frame must change state, not just the first: freeing a
    // block with any already-free frame in it is a double free.
    const std::uint64_t end = frame + (std::uint64_t{1} << order);
    for (std::uint64_t f = frame; f < end; ++f) {
        SEESAW_ASSERT(frameFree_[f] != free_state,
                      free_state ? "double free of frame "
                                 : "allocation of busy frame ",
                      f);
        frameFree_[f] = free_state;
    }
}

void
BuddyAllocator::insertBlock(std::uint64_t frame, unsigned order)
{
    const std::uint64_t block = frame >> order;
    SEESAW_ASSERT(!freeLists_[order].test(block),
                  "double insert of free block ", frame);
    freeLists_[order].set(block);
}

void
BuddyAllocator::removeBlock(std::uint64_t frame, unsigned order)
{
    const std::uint64_t block = frame >> order;
    SEESAW_ASSERT(freeLists_[order].test(block),
                  "free block not found ", frame);
    freeLists_[order].reset(block);
}

std::optional<std::uint64_t>
BuddyAllocator::allocate(unsigned order)
{
    SEESAW_ASSERT(order <= kMaxOrder, "order too large: ", order);

    unsigned have = order;
    while (have <= kMaxOrder && freeLists_[have].count() == 0)
        ++have;
    if (have > kMaxOrder)
        return std::nullopt;

    std::uint64_t frame = freeLists_[have].lowest() << have;
    removeBlock(frame, have);

    // Split down to the requested order, returning upper halves to the
    // free lists.
    while (have > order) {
        --have;
        insertBlock(frame + (std::uint64_t{1} << have), have);
    }

    markRange(frame, order, false);
    freeFrames_ -= std::uint64_t{1} << order;
    return frame;
}

std::optional<std::pair<std::uint64_t, unsigned>>
BuddyAllocator::findContainingFreeBlock(std::uint64_t frame,
                                        unsigned min_order) const
{
    for (unsigned order = min_order; order <= kMaxOrder; ++order) {
        const std::uint64_t start =
            frame & ~((std::uint64_t{1} << order) - 1);
        if (freeLists_[order].test(start >> order))
            return std::make_pair(start, order);
    }
    return std::nullopt;
}

bool
BuddyAllocator::allocateSpecific(std::uint64_t frame, unsigned order)
{
    SEESAW_ASSERT(order <= kMaxOrder, "order too large: ", order);
    SEESAW_ASSERT((frame & ((std::uint64_t{1} << order) - 1)) == 0,
                  "unaligned specific allocation");
    if (frame + (std::uint64_t{1} << order) > totalFrames_)
        return false;

    auto block = findContainingFreeBlock(frame, order);
    if (!block)
        return false;

    auto [start, have] = *block;
    removeBlock(start, have);

    // Split the containing block, keeping only the requested sub-block.
    while (have > order) {
        --have;
        const std::uint64_t half = std::uint64_t{1} << have;
        if (frame < start + half) {
            insertBlock(start + half, have);
        } else {
            insertBlock(start, have);
            start += half;
        }
    }
    SEESAW_ASSERT(start == frame, "buddy split logic error");

    markRange(frame, order, false);
    freeFrames_ -= std::uint64_t{1} << order;
    return true;
}

void
BuddyAllocator::free(std::uint64_t frame, unsigned order)
{
    SEESAW_ASSERT(order <= kMaxOrder, "order too large: ", order);
    SEESAW_ASSERT((frame & ((std::uint64_t{1} << order) - 1)) == 0,
                  "unaligned free");
    SEESAW_ASSERT(frame + (std::uint64_t{1} << order) <= totalFrames_,
                  "free past end of memory: frame ", frame);

    markRange(frame, order, true);
    freeFrames_ += std::uint64_t{1} << order;

    // Coalesce with free buddies as far as possible.
    while (order < kMaxOrder) {
        const std::uint64_t buddy = buddyOf(frame, order);
        if (buddy + (std::uint64_t{1} << order) > totalFrames_ ||
            !freeLists_[order].test(buddy >> order)) {
            break;
        }
        removeBlock(buddy, order);
        frame = std::min(frame, buddy);
        ++order;
    }
    insertBlock(frame, order);
}

bool
BuddyAllocator::isFrameFree(std::uint64_t frame) const
{
    SEESAW_ASSERT(frame < totalFrames_, "frame out of range");
    return frameFree_[frame];
}

std::size_t
BuddyAllocator::freeBlocksAt(unsigned order) const
{
    SEESAW_ASSERT(order <= kMaxOrder, "order too large");
    return freeLists_[order].count();
}

std::uint64_t
BuddyAllocator::freeFramesAtOrAbove(unsigned order) const
{
    std::uint64_t frames = 0;
    for (unsigned o = order; o <= kMaxOrder; ++o)
        frames += freeLists_[o].count() * (std::uint64_t{1} << o);
    return frames;
}

double
BuddyAllocator::fragmentationIndex(unsigned order) const
{
    if (freeFrames_ == 0)
        return 1.0;
    const double high = static_cast<double>(freeFramesAtOrAbove(order));
    return 1.0 - high / static_cast<double>(freeFrames_);
}

} // namespace seesaw

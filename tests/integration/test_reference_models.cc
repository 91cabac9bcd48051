/** @file Property tests cross-checking the optimised structures
 *  against naive reference models under long random operation
 *  streams. */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "cache/set_assoc_cache.hh"
#include "common/random.hh"
#include "mem/buddy_allocator.hh"
#include "tlb/tlb.hh"

namespace seesaw {
namespace {

// ------------------------------------------------------------------
// SetAssocCache vs a naive per-set LRU list model.

class RefCacheModel
{
  public:
    RefCacheModel(unsigned sets, unsigned assoc)
        : sets_(sets), assoc_(assoc), lru_(sets)
    {
    }

    bool
    lookup(unsigned set, Addr line)
    {
        auto &l = lru_[set];
        auto it = std::find(l.begin(), l.end(), line);
        if (it == l.end())
            return false;
        l.erase(it);
        l.push_front(line); // MRU position
        return true;
    }

    /** @return The evicted line, if any. */
    std::optional<Addr>
    insert(unsigned set, Addr line)
    {
        auto &l = lru_[set];
        l.push_front(line);
        if (l.size() > assoc_) {
            const Addr victim = l.back();
            l.pop_back();
            return victim;
        }
        return std::nullopt;
    }

  private:
    unsigned sets_, assoc_;
    std::vector<std::list<Addr>> lru_;
};

TEST(ReferenceModels, SetAssocCacheMatchesNaiveLruModel)
{
    SetAssocCache cache(32 * 1024, 8); // 64 sets, unpartitioned
    RefCacheModel ref(64, 8);
    Rng rng(1234);

    for (int i = 0; i < 200000; ++i) {
        // Skewed address mix to exercise both hits and evictions.
        const Addr line = rng.nextBounded(4096);
        const Addr pa = line << 6;
        const unsigned set = cache.setIndex(pa);

        const bool model_hit = ref.lookup(set, line);
        const bool cache_hit = cache.lookup(pa).hit;
        ASSERT_EQ(cache_hit, model_hit) << "op " << i;

        if (!cache_hit) {
            const auto model_evict = ref.insert(set, line);
            const Eviction ev = cache.insert(
                pa, SetAssocCache::InsertScope::FullSet,
                CoherenceState::Exclusive, PageSize::Base4KB);
            ASSERT_EQ(ev.valid, model_evict.has_value()) << "op " << i;
            if (ev.valid) {
                ASSERT_EQ(ev.lineAddr, *model_evict) << "op " << i;
            }
        }
    }
}

TEST(ReferenceModels, PartitionedCacheIsTwoIndependentLruHalves)
{
    // Under Partition scope, each partition must behave exactly like
    // an independent 4-way LRU cache keyed by (set, partition).
    SetAssocCache cache(32 * 1024, 8, 64, 2);
    RefCacheModel ref(128, 4); // (set, partition) flattened
    Rng rng(99);

    for (int i = 0; i < 200000; ++i) {
        const Addr line = rng.nextBounded(8192);
        const Addr pa = line << 6;
        const unsigned set = cache.setIndex(pa);
        const unsigned part = cache.partitionIndex(pa);
        const unsigned flat = set * 2 + part;

        const bool model_hit = ref.lookup(flat, line);
        const bool cache_hit = cache.lookupPartition(pa, part).hit;
        ASSERT_EQ(cache_hit, model_hit) << "op " << i;
        if (!cache_hit) {
            const auto model_evict = ref.insert(flat, line);
            const Eviction ev = cache.insert(
                pa, SetAssocCache::InsertScope::Partition,
                CoherenceState::Exclusive, PageSize::Base4KB);
            ASSERT_EQ(ev.valid, model_evict.has_value());
            if (ev.valid) {
                ASSERT_EQ(ev.lineAddr, *model_evict);
            }
        }
    }
    EXPECT_TRUE(cache.checkPlacementInvariant());
}

// ------------------------------------------------------------------
// BuddyAllocator vs a naive interval model.

TEST(ReferenceModels, BuddyAllocatorNeverOverlapsAndAlwaysCoalesces)
{
    BuddyAllocator buddy(64ULL << 20); // 16384 frames
    Rng rng(77);

    std::map<std::uint64_t, unsigned> live; // start frame -> order
    std::set<std::uint64_t> used_frames;

    for (int i = 0; i < 50000; ++i) {
        if (live.empty() || rng.chance(0.55)) {
            const unsigned order = rng.nextBounded(6);
            auto frame = buddy.allocate(order);
            if (!frame)
                continue;
            // Alignment.
            ASSERT_EQ(*frame % (1ULL << order), 0u);
            // No overlap with any live block.
            for (std::uint64_t f = *frame;
                 f < *frame + (1ULL << order); ++f) {
                ASSERT_TRUE(used_frames.insert(f).second)
                    << "frame " << f << " double-allocated";
            }
            live.emplace(*frame, order);
        } else {
            auto it = live.begin();
            std::advance(it, rng.nextBounded(live.size()));
            for (std::uint64_t f = it->first;
                 f < it->first + (1ULL << it->second); ++f) {
                used_frames.erase(f);
            }
            buddy.free(it->first, it->second);
            live.erase(it);
        }
        // Frame accounting must match exactly at every step.
        ASSERT_EQ(buddy.freeFrames(),
                  buddy.totalFrames() - used_frames.size());
    }

    // Free everything: full coalescing back to pristine state.
    for (const auto &[frame, order] : live)
        buddy.free(frame, order);
    EXPECT_EQ(buddy.freeFrames(), buddy.totalFrames());
    EXPECT_EQ(buddy.fragmentationIndex(9), 0.0);
}

// ------------------------------------------------------------------
// BuddyAllocator vs a naive std::set-per-order buddy in lockstep. The
// naive model is the allocator's original free-list implementation;
// matching it after every operation pins the lowest-address-first
// order that every memory image and golden result depends on.

class RefBuddy
{
  public:
    explicit RefBuddy(std::uint64_t frames)
        : total_(frames), lists_(kMaxOrder + 1), free_(frames, false)
    {
        std::uint64_t frame = 0;
        while (frame < total_) {
            unsigned order = kMaxOrder;
            while (order > 0 && (frame % size(order) != 0 ||
                                 frame + size(order) > total_)) {
                --order;
            }
            lists_[order].insert(frame);
            mark(frame, order, true);
            frame += size(order);
        }
    }

    std::optional<std::uint64_t>
    allocate(unsigned order)
    {
        unsigned have = order;
        while (have <= kMaxOrder && lists_[have].empty())
            ++have;
        if (have > kMaxOrder)
            return std::nullopt;
        const std::uint64_t frame = *lists_[have].begin();
        lists_[have].erase(frame);
        while (have > order) {
            --have;
            lists_[have].insert(frame + size(have));
        }
        mark(frame, order, false);
        return frame;
    }

    bool
    allocateSpecific(std::uint64_t frame, unsigned order)
    {
        if (frame + size(order) > total_)
            return false;
        for (unsigned have = order; have <= kMaxOrder; ++have) {
            std::uint64_t start = frame & ~(size(have) - 1);
            if (!lists_[have].erase(start))
                continue;
            while (have > order) {
                --have;
                if (frame < start + size(have)) {
                    lists_[have].insert(start + size(have));
                } else {
                    lists_[have].insert(start);
                    start += size(have);
                }
            }
            mark(frame, order, false);
            return true;
        }
        return false;
    }

    void
    free(std::uint64_t frame, unsigned order)
    {
        mark(frame, order, true);
        while (order < kMaxOrder) {
            const std::uint64_t buddy = frame ^ size(order);
            if (buddy + size(order) > total_ ||
                !lists_[order].erase(buddy)) {
                break;
            }
            frame = std::min(frame, buddy);
            ++order;
        }
        lists_[order].insert(frame);
    }

    bool isFrameFree(std::uint64_t frame) const { return free_[frame]; }
    std::uint64_t freeFrames() const { return freeFrames_; }
    std::size_t freeBlocksAt(unsigned o) const { return lists_[o].size(); }

  private:
    static constexpr unsigned kMaxOrder = BuddyAllocator::kMaxOrder;

    static std::uint64_t size(unsigned order) { return 1ULL << order; }

    void
    mark(std::uint64_t frame, unsigned order, bool free_state)
    {
        for (std::uint64_t f = frame; f < frame + size(order); ++f)
            free_[f] = free_state;
        if (free_state)
            freeFrames_ += size(order);
        else
            freeFrames_ -= size(order);
    }

    std::uint64_t total_;
    std::uint64_t freeFrames_ = 0;
    std::vector<std::set<std::uint64_t>> lists_;
    std::vector<bool> free_;
};

TEST(ReferenceModels, BuddyAllocatorMatchesNaiveSetBuddyInLockstep)
{
    // Not a power of two, so the top of memory holds a ragged tail of
    // smaller blocks and buddies that fall past the end.
    constexpr std::uint64_t kFrames = 18000;
    BuddyAllocator buddy(kFrames * BuddyAllocator::kFrameBytes);
    RefBuddy ref(kFrames);
    Rng rng(20181);

    std::map<std::uint64_t, unsigned> live; // start frame -> order
    auto check = [&](std::uint64_t frame, unsigned order, int step) {
        ASSERT_EQ(buddy.freeFrames(), ref.freeFrames()) << "step " << step;
        for (unsigned o = 0; o <= BuddyAllocator::kMaxOrder; ++o) {
            ASSERT_EQ(buddy.freeBlocksAt(o), ref.freeBlocksAt(o))
                << "order " << o << " at step " << step;
        }
        const std::uint64_t end =
            std::min<std::uint64_t>(frame + (1ULL << order), kFrames);
        for (std::uint64_t f = frame; f < end; ++f) {
            ASSERT_EQ(buddy.isFrameFree(f), ref.isFrameFree(f))
                << "frame " << f << " at step " << step;
        }
    };

    for (int step = 0; step < 60000; ++step) {
        const unsigned order = rng.nextBounded(11);
        const double pick = rng.nextDouble();
        if (live.empty() || pick < 0.45) {
            const auto got = buddy.allocate(order);
            ASSERT_EQ(got, ref.allocate(order)) << "step " << step;
            if (!got)
                continue;
            live.emplace(*got, order);
            check(*got, order, step);
        } else if (pick < 0.6) {
            // Aligned candidates, a few of them past the end of memory.
            const std::uint64_t frame =
                rng.nextBounded((kFrames >> order) + 2) << order;
            const bool got = buddy.allocateSpecific(frame, order);
            ASSERT_EQ(got, ref.allocateSpecific(frame, order))
                << "step " << step;
            if (!got)
                continue;
            live.emplace(frame, order);
            check(frame, order, step);
        } else {
            auto it = live.begin();
            std::advance(it, rng.nextBounded(live.size()));
            const auto [frame, block_order] = *it;
            live.erase(it);
            buddy.free(frame, block_order);
            ref.free(frame, block_order);
            check(frame, block_order, step);
        }
    }

    for (const auto &[frame, order] : live) {
        buddy.free(frame, order);
        ref.free(frame, order);
    }
    check(0, 0, -1);
    EXPECT_EQ(buddy.freeFrames(), kFrames);
    for (std::uint64_t f = 0; f < kFrames; ++f)
        ASSERT_TRUE(buddy.isFrameFree(f));
}

// ------------------------------------------------------------------
// TLB vs a naive map model with LRU per set.

TEST(ReferenceModels, TlbMatchesNaiveModel)
{
    Tlb tlb("ref", 32, 4, PageSize::Base4KB); // 8 sets x 4 ways
    RefCacheModel ref(8, 4);                  // reuse: key = vpn
    Rng rng(55);

    for (int i = 0; i < 100000; ++i) {
        const Addr vpn = rng.nextBounded(256);
        const Addr va = vpn << 12;
        const unsigned set = static_cast<unsigned>(vpn % 8);

        const bool model_hit = ref.lookup(set, vpn);
        const bool tlb_hit = tlb.lookup(1, va).has_value();
        ASSERT_EQ(tlb_hit, model_hit) << "op " << i;
        if (!tlb_hit) {
            ref.insert(set, vpn);
            tlb.insert(1, va, va);
        }
    }
}

} // namespace
} // namespace seesaw

/** @file Tests for the memhog fragmentation model (Fig 3's driver). */

#include <gtest/gtest.h>

#include "mem/memhog.hh"

namespace seesaw {
namespace {

constexpr std::uint64_t kMB = 1ULL << 20;

OsParams
params(std::uint64_t mem = 512 * kMB)
{
    OsParams p;
    p.memBytes = mem;
    p.kernelReservedFraction = 0.0;
    p.pollutedRegionFraction = 0.0;
    return p;
}

TEST(Memhog, ConsumesRequestedFraction)
{
    OsMemoryManager os(params());
    Memhog hog(os);
    hog.consume(0.4);
    const double used =
        1.0 - static_cast<double>(os.buddy().freeFrames()) /
                  static_cast<double>(os.buddy().totalFrames());
    EXPECT_NEAR(used, 0.4, 0.02);
}

TEST(Memhog, ZeroFractionIsNoop)
{
    OsMemoryManager os(params());
    Memhog hog(os);
    hog.consume(0.0);
    EXPECT_EQ(os.buddy().freeFrames(), os.buddy().totalFrames());
    EXPECT_EQ(hog.heldFrames(), 0u);
}

TEST(Memhog, FragmentsHighOrderFreeLists)
{
    OsMemoryManager os(params());
    const auto clean_high = os.buddy().freeFramesAtOrAbove(9);
    Memhog hog(os);
    hog.consume(0.5);
    // Free memory must be substantially less superpage-capable than a
    // clean system's.
    const auto frag_high = os.buddy().freeFramesAtOrAbove(9);
    EXPECT_LT(frag_high, clean_high / 2);
    EXPECT_GT(os.buddy().fragmentationIndex(9), 0.1);
}

TEST(Memhog, ReleaseReturnsMovableFrames)
{
    OsMemoryManager os(params());
    MemhogParams mp;
    mp.pinnedProbability = 0.0;
    Memhog hog(os, mp);
    hog.consume(0.3);
    EXPECT_GT(hog.heldFrames(), 0u);
    hog.release();
    EXPECT_EQ(hog.heldFrames(), 0u);
    EXPECT_EQ(os.buddy().freeFrames(), os.buddy().totalFrames());
}

TEST(Memhog, ReleaseReturnsPinnedFramesToo)
{
    OsMemoryManager os(params());
    // Default pinned probability: about 3% of the ~39K held frames
    // are pinned in place, and release() frees them with the rest.
    Memhog hog(os);
    ASSERT_GT(MemhogParams{}.pinnedProbability, 0.0);
    hog.consume(0.3);
    EXPECT_GT(hog.heldFrames(), 0u);
    hog.release();
    EXPECT_EQ(hog.heldFrames(), 0u);
    EXPECT_EQ(os.buddy().freeFrames(), os.buddy().totalFrames());
    EXPECT_EQ(os.buddy().fragmentationIndex(9), 0.0);
}

TEST(Memhog, DeterministicAcrossSeeds)
{
    OsMemoryManager os1(params()), os2(params());
    Memhog h1(os1), h2(os2);
    h1.consume(0.35);
    h2.consume(0.35);
    EXPECT_EQ(os1.buddy().freeFrames(), os2.buddy().freeFrames());
    EXPECT_EQ(os1.buddy().freeFramesAtOrAbove(9),
              os2.buddy().freeFramesAtOrAbove(9));
}

TEST(Memhog, Fig12ImageIsGolden)
{
    // The fig12 fragmentation point exactly as the engines build it:
    // default 4GB OS with the default config seed (1) mixed in, then
    // memhog 0.6. Every fragmented-image result depends on the buddy
    // allocator's lowest-address-first order, so the whole image is
    // pinned: per-order free-list sizes and a hash of every frame.
    OsParams p;
    p.seed ^= 1;
    OsMemoryManager os(p);
    Memhog hog(os);
    hog.consume(0.6);
    const BuddyAllocator &buddy = os.buddy();

    std::uint64_t hash = 0xcbf29ce484222325ULL; // FNV-1a 64
    for (std::uint64_t f = 0; f < buddy.totalFrames(); ++f) {
        hash ^= buddy.isFrameFree(f) ? 1u : 0u;
        hash *= 0x100000001b3ULL;
    }
    std::vector<std::size_t> blocks;
    for (unsigned o = 0; o <= BuddyAllocator::kMaxOrder; ++o)
        blocks.push_back(buddy.freeBlocksAt(o));

    EXPECT_EQ(buddy.freeFrames(), 377800u);
    const std::vector<std::size_t> golden_blocks = {
        4932, 4800, 4439, 3995, 3183, 2183, 1254, 505, 149, 17,
        1,    0,    0,    0,    0,    0,    0,    0,   0};
    EXPECT_EQ(blocks, golden_blocks);
    EXPECT_EQ(hash, 0x8a2e4e6664da4805ULL);
}

TEST(Memhog, HigherFractionLeavesLessContiguity)
{
    double prev = 1e18;
    for (double frac : {0.2, 0.5, 0.8}) {
        OsMemoryManager os(params());
        Memhog hog(os);
        hog.consume(frac);
        const auto high =
            static_cast<double>(os.buddy().freeFramesAtOrAbove(9));
        EXPECT_LT(high, prev);
        prev = high;
    }
}

TEST(Memhog, SuperpageCoverageDegradesGracefully)
{
    // The Fig 3 mechanism end to end: a workload mapped after memhog
    // sees high coverage at low fragmentation and reduced (but not
    // zero) coverage at moderate fragmentation, thanks to compaction.
    double coverage_low, coverage_mid;
    {
        OsMemoryManager os(params());
        Memhog hog(os);
        hog.consume(0.1);
        const Asid a = os.createProcess();
        os.mapAnonymous(a, 0x40000000, 64 * kMB, 1.0);
        coverage_low = os.superpageCoverage(a);
    }
    {
        OsMemoryManager os(params());
        Memhog hog(os);
        hog.consume(0.6);
        const Asid a = os.createProcess();
        os.mapAnonymous(a, 0x40000000, 64 * kMB, 1.0);
        coverage_mid = os.superpageCoverage(a);
    }
    EXPECT_GT(coverage_low, 0.8);
    EXPECT_GT(coverage_low, coverage_mid);
    EXPECT_GT(coverage_mid, 0.0);
}

} // namespace
} // namespace seesaw

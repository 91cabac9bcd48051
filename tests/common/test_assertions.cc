/** @file Death tests: invariant violations must abort loudly via
 *  SEESAW_PANIC rather than corrupt simulator state. */

#include <gtest/gtest.h>

#include "cache/set_assoc_cache.hh"
#include "core/seesaw_cache.hh"
#include "mem/buddy_allocator.hh"
#include "mem/page_table.hh"
#include "tlb/tlb.hh"

namespace seesaw {
namespace {

using AssertionDeathTest = ::testing::Test;

TEST(AssertionDeathTest, CacheRejectsNonPowerOfTwoAssoc)
{
    EXPECT_DEATH({ SetAssocCache cache(32 * 1024, 3); },
                 "power of two");
}

TEST(AssertionDeathTest, CacheRejectsPartitionsNotDividingWays)
{
    EXPECT_DEATH({ SetAssocCache cache(32 * 1024, 8, 64, 16); },
                 "partitions");
}

TEST(AssertionDeathTest, SeesawRejectsNon4KbSetSpan)
{
    // 16KB 8-way has 32 sets: the partition bit would fall inside the
    // 4KB page offset, breaking the whole premise.
    LatencyTable latency;
    SeesawConfig cfg;
    cfg.sizeBytes = 16 * 1024;
    cfg.assoc = 8;
    EXPECT_DEATH({ SeesawCache cache(cfg, latency); },
                 "sets x linesize");
}

TEST(AssertionDeathTest, SeesawRejectsTftHitOnBasePage)
{
    // Forcing a (claimed) TFT hit for a base-page access violates the
    // TFT guarantee and must trip the internal check.
    LatencyTable latency;
    SeesawCache cache({}, latency);
    L1Access req{0x5000, 0x9000, PageSize::Base4KB, AccessType::Read,
                 /*tftProbe=*/1};
    EXPECT_DEATH({ cache.access(req); }, "base-page");
}

TEST(AssertionDeathTest, BuddyRejectsDoubleFree)
{
    EXPECT_DEATH(
        {
            BuddyAllocator buddy(4ULL << 20);
            auto f = buddy.allocate(0);
            buddy.free(*f, 0);
            buddy.free(*f, 0);
        },
        "double free");
}

TEST(AssertionDeathTest, BuddyRejectsUnalignedFree)
{
    EXPECT_DEATH(
        {
            BuddyAllocator buddy(4ULL << 20);
            auto f = buddy.allocate(3); // 8-frame aligned block
            buddy.free(*f + 1, 3);
        },
        "unaligned");
}

TEST(AssertionDeathTest, BuddyRejectsFreeOfPartlyFreeBlock)
{
    // Only the block's last frame is already free: the whole block must
    // be checked, not just its first frame.
    EXPECT_DEATH(
        {
            BuddyAllocator buddy(4ULL << 20);
            for (int i = 0; i < 8; ++i)
                buddy.allocate(0); // frames 0..7, lowest first
            buddy.free(7, 0);
            buddy.free(0, 3);
        },
        "double free");
}

TEST(AssertionDeathTest, BuddyRejectsFreePastEndOfMemory)
{
    EXPECT_DEATH(
        {
            BuddyAllocator buddy(4ULL << 20); // frames 0..1023
            buddy.free(1024, 3);
        },
        "past end of memory");
}

TEST(AssertionDeathTest, PageTableRejectsUnalignedMapping)
{
    EXPECT_DEATH(
        {
            PageTable pt;
            pt.map(1, 0x1234, 0x9000, PageSize::Base4KB);
        },
        "unaligned");
}

TEST(AssertionDeathTest, TlbRejectsUnalignedFill)
{
    EXPECT_DEATH(
        {
            Tlb tlb("t", 16, 4, PageSize::Super2MB);
            tlb.insert(1, 0x200000, 0x1234);
        },
        "unaligned");
}

} // namespace
} // namespace seesaw

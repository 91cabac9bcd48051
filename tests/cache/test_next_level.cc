/** @file Tests for the L2/LLC/DRAM outer hierarchy. */

#include <gtest/gtest.h>

#include "cache/next_level.hh"

namespace seesaw {
namespace {

TEST(OuterHierarchy, LatenciesConvertToCycles)
{
    OuterHierarchyParams p;
    OuterHierarchy outer(p, 1.33);
    EXPECT_GE(outer.l2Cycles(), 1u);
    EXPECT_GT(outer.llcCycles(), outer.l2Cycles());
    EXPECT_GT(outer.dramCycles(), outer.llcCycles());
    // Table II: 51ns DRAM at 1.33GHz is ~68 cycles.
    EXPECT_EQ(outer.dramCycles(), 68u);
}

TEST(OuterHierarchy, ColdAccessGoesToDram)
{
    OuterHierarchy outer({}, 1.33);
    const auto res = outer.access(0x10000, AccessType::Read);
    EXPECT_EQ(res.level, HitLevel::Dram);
    EXPECT_TRUE(res.llcAccessed);
    EXPECT_TRUE(res.dramAccessed);
    EXPECT_EQ(res.cycles, outer.l2Cycles() + outer.llcCycles() +
                              outer.dramCycles());
}

TEST(OuterHierarchy, SecondAccessHitsL2)
{
    OuterHierarchy outer({}, 1.33);
    outer.access(0x10000, AccessType::Read);
    const auto res = outer.access(0x10000, AccessType::Read);
    EXPECT_EQ(res.level, HitLevel::L2);
    EXPECT_FALSE(res.llcAccessed);
    EXPECT_FALSE(res.dramAccessed);
    EXPECT_EQ(res.cycles, outer.l2Cycles());
}

TEST(OuterHierarchy, L2EvictionFallsBackToLlc)
{
    OuterHierarchyParams p;
    p.l2SizeBytes = 4 * 1024; // tiny L2: 64 lines
    p.l2Assoc = 1;
    OuterHierarchy outer(p, 1.33);
    outer.access(0x0, AccessType::Read);
    // Evict line 0 from the direct-mapped L2 with a conflicting line.
    outer.access(4 * 1024, AccessType::Read);
    const auto res = outer.access(0x0, AccessType::Read);
    EXPECT_EQ(res.level, HitLevel::LLC);
}

TEST(OuterHierarchy, StatsTrackLevels)
{
    OuterHierarchy outer({}, 1.33);
    outer.access(0x0, AccessType::Read);
    outer.access(0x0, AccessType::Read);
    EXPECT_EQ(outer.stats().get("l2_accesses"), 2.0);
    EXPECT_EQ(outer.stats().get("l2_hits"), 1.0);
    EXPECT_EQ(outer.stats().get("dram_accesses"), 1.0);
}

TEST(OuterHierarchy, WritebackInstallsInL2)
{
    OuterHierarchy outer({}, 1.33);
    outer.writeback(0x4000);
    const auto res = outer.access(0x4000, AccessType::Read);
    EXPECT_EQ(res.level, HitLevel::L2);
    EXPECT_EQ(outer.stats().get("l1_writebacks"), 1.0);
}

TEST(OuterHierarchy, CoresShareTheGivenLlc)
{
    // Two cores' hierarchies over one LLC: a line one core brought in
    // from DRAM is an LLC hit for the other.
    const OuterHierarchyParams p;
    SetAssocCache shared(p.llcSizeBytes, p.llcAssoc);
    OuterHierarchy core0(p, 1.33, &shared);
    OuterHierarchy core1(p, 1.33, &shared);
    EXPECT_EQ(&core0.llc(), &shared);
    EXPECT_EQ(&core1.llc(), &shared);
    EXPECT_EQ(core0.access(0x40000, AccessType::Read).level,
              HitLevel::Dram);
    EXPECT_TRUE(shared.peek(0x40000).hit);
    EXPECT_EQ(core1.access(0x40000, AccessType::Read).level,
              HitLevel::LLC);
}

TEST(OuterHierarchy, HigherFrequencyMeansMoreCycles)
{
    OuterHierarchy slow({}, 1.33), fast({}, 4.0);
    EXPECT_GT(fast.dramCycles(), slow.dramCycles());
}

} // namespace
} // namespace seesaw

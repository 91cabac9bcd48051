/** @file Tests for the Table III latency oracle. */

#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>

#include "model/latency_table.hh"

namespace seesaw {
namespace {

constexpr std::uint64_t kKB = 1024;

TEST(LatencyTable, HasAllNinePaperRows)
{
    LatencyTable t;
    EXPECT_EQ(t.rows().size(), 9u);
}

/** Every row of the paper's Table III, verbatim. */
struct TableRow
{
    std::uint64_t sizeKb;
    unsigned assoc;
    double freq;
    unsigned base;
    unsigned super;
};

/**
 * Names each row, e.g. 32KB_8way_1.33GHz. gtest would otherwise print the
 * raw bytes of the struct, padding included, and those differ from run to
 * run, which gives the registered ctest cases a new name on every build.
 */
void PrintTo(const TableRow &row, std::ostream *os)
{
    char freq[16];
    std::snprintf(freq, sizeof(freq), "%.2f", row.freq);
    *os << row.sizeKb << "KB_" << row.assoc << "way_" << freq << "GHz";
}

class TableIiiTest : public ::testing::TestWithParam<TableRow>
{
};

TEST_P(TableIiiTest, MatchesPaper)
{
    LatencyTable t;
    const TableRow row = GetParam();
    EXPECT_EQ(t.basePageCycles(row.sizeKb * kKB, row.assoc, row.freq),
              row.base);
    EXPECT_EQ(t.superpageCycles(row.sizeKb * kKB, row.assoc, 4, row.freq),
              row.super);
    EXPECT_EQ(t.tftCycles(row.freq), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, TableIiiTest,
    ::testing::Values(TableRow{32, 8, 1.33, 2, 1},
                      TableRow{32, 8, 2.80, 4, 2},
                      TableRow{32, 8, 4.00, 5, 3},
                      TableRow{64, 16, 1.33, 5, 1},
                      TableRow{64, 16, 2.80, 9, 2},
                      TableRow{64, 16, 4.00, 13, 3},
                      TableRow{128, 32, 1.33, 14, 2},
                      TableRow{128, 32, 2.80, 30, 3},
                      TableRow{128, 32, 4.00, 42, 4}));

TEST(LatencyTable, FindMissesUnknownConfig)
{
    LatencyTable t;
    EXPECT_FALSE(t.find(48 * kKB, 8, 1.33).has_value());
    EXPECT_FALSE(t.find(32 * kKB, 4, 1.33).has_value());
    EXPECT_FALSE(t.find(32 * kKB, 8, 2.0).has_value());
}

TEST(LatencyTable, UnknownConfigFallsBackToAnalyticalModel)
{
    LatencyTable t;
    const unsigned analytic =
        t.sram().accessLatencyCycles(16 * kKB, 4, 2.0);
    EXPECT_EQ(t.basePageCycles(16 * kKB, 4, 2.0), analytic);
}

TEST(LatencyTable, SuperpageNeverSlowerThanBasePage)
{
    LatencyTable t;
    for (const auto &row : t.rows()) {
        EXPECT_LT(t.superpageCycles(row.sizeBytes, row.assoc, 4,
                                    row.freqGhz),
                  t.basePageCycles(row.sizeBytes, row.assoc,
                                   row.freqGhz));
    }
}

TEST(LatencyTable, FullWidthPartitionEqualsBasePath)
{
    LatencyTable t;
    EXPECT_EQ(t.superpageCycles(32 * kKB, 8, 8, 1.33),
              t.basePageCycles(32 * kKB, 8, 1.33));
}

TEST(LatencyTable, PiptAddsSerialTlbLatency)
{
    LatencyTable t;
    const unsigned tlb = 2;
    const unsigned pipt = t.piptCycles(32 * kKB, 4, 1.33, tlb);
    const unsigned array = t.sram().accessLatencyCycles(32 * kKB, 4, 1.33);
    EXPECT_EQ(pipt, tlb + array);
}

TEST(LatencyTable, BasePageLatencyGrowsWithFrequency)
{
    LatencyTable t;
    EXPECT_LT(t.basePageCycles(64 * kKB, 16, 1.33),
              t.basePageCycles(64 * kKB, 16, 2.80));
    EXPECT_LT(t.basePageCycles(64 * kKB, 16, 2.80),
              t.basePageCycles(64 * kKB, 16, 4.00));
}

TEST(LatencyTable, LargerCachesPayMoreAtFixedFrequency)
{
    LatencyTable t;
    EXPECT_LT(t.basePageCycles(32 * kKB, 8, 1.33),
              t.basePageCycles(64 * kKB, 16, 1.33));
    EXPECT_LT(t.basePageCycles(64 * kKB, 16, 1.33),
              t.basePageCycles(128 * kKB, 32, 1.33));
}

} // namespace
} // namespace seesaw

/**
 * @file
 * The configuration enums' name tables: every enumerator round-trips
 * through its name, the names that campaign cell labels embed stay
 * fixed, and an unknown name is fatal.
 */

#include <gtest/gtest.h>

#include "sim/config.hh"

namespace seesaw {
namespace {

TEST(NameTable, EveryEnumeratorRoundTrips)
{
    for (const L1Kind k :
         {L1Kind::ViptBaseline, L1Kind::Pipt, L1Kind::Seesaw,
          L1Kind::ViptWayPredicted, L1Kind::SeesawWayPredicted,
          L1Kind::Sipt})
        EXPECT_EQ(parseL1Kind(l1KindName(k)), k) << l1KindName(k);
    for (const CoherenceKind k :
         {CoherenceKind::Directory, CoherenceKind::Snoopy,
          CoherenceKind::None})
        EXPECT_EQ(parseCoherenceKind(coherenceKindName(k)), k)
            << coherenceKindName(k);
    for (const ReplacementKind k :
         {ReplacementKind::Lru, ReplacementKind::Fifo,
          ReplacementKind::Random, ReplacementKind::Srrip})
        EXPECT_EQ(parseReplacementKind(replacementKindName(k)), k)
            << replacementKindName(k);
    for (const PrefetchKind k :
         {PrefetchKind::None, PrefetchKind::NextLine,
          PrefetchKind::Stride})
        EXPECT_EQ(parsePrefetchKind(prefetchKindName(k)), k)
            << prefetchKindName(k);
    for (const CoreKind k : {CoreKind::InOrder, CoreKind::OutOfOrder})
        EXPECT_EQ(parseCoreKind(coreKindName(k)), k) << coreKindName(k);
    for (const InsertionPolicy k :
         {InsertionPolicy::FourWay, InsertionPolicy::FourWayEightWay})
        EXPECT_EQ(parseInsertionPolicy(insertionPolicyName(k)), k)
            << insertionPolicyName(k);
}

TEST(NameTable, CellLabelNamesAreFixed)
{
    // Campaign cell names (and the nightly goldens) embed these.
    EXPECT_STREQ(l1KindName(L1Kind::ViptBaseline), "vipt");
    EXPECT_STREQ(l1KindName(L1Kind::Seesaw), "seesaw");
    EXPECT_STREQ(l1KindName(L1Kind::Pipt), "pipt");
    EXPECT_STREQ(l1KindName(L1Kind::Sipt), "sipt");
    EXPECT_STREQ(l1KindName(L1Kind::ViptWayPredicted), "wp");
    EXPECT_STREQ(l1KindName(L1Kind::SeesawWayPredicted), "wpseesaw");
    EXPECT_STREQ(replacementKindName(ReplacementKind::Srrip), "srrip");
    EXPECT_STREQ(prefetchKindName(PrefetchKind::NextLine), "nextline");
}

TEST(NameTableDeathTest, UnknownNameIsFatal)
{
    EXPECT_EXIT((void)parseCoherenceKind("nonexistent"),
                ::testing::ExitedWithCode(1),
                "unknown coherence fabric 'nonexistent' "
                "\\(use directory\\|snoopy\\|none\\)");
}

} // namespace
} // namespace seesaw

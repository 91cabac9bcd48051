/**
 * @file
 * The SEESAW L1 data cache (Section IV, Fig 4).
 *
 * SEESAW way-partitions a conventional VIPT cache and uses the virtual
 * address bits immediately above the set index (bit 12 upward) as a
 * partition index. For accesses the TFT confirms as superpage-backed,
 * those bits are page-offset bits — identical in the physical address —
 * so only one partition's ways need to be read: a faster, cheaper
 * lookup. TFT misses (base pages, or untracked superpages) read the
 * speculated partition first and the remaining partitions in the next
 * cycle, matching baseline VIPT latency and energy (Table I).
 *
 * With the `4way` insertion policy every line resides in the partition
 * named by its *physical* address, so coherence probes — which carry
 * physical addresses — always read a single partition, for base pages
 * and superpages alike (Section IV-C1).
 */

#ifndef SEESAW_CORE_SEESAW_CACHE_HH
#define SEESAW_CORE_SEESAW_CACHE_HH

#include <memory>
#include <string_view>

#include "cache/l1_cache.hh"
#include "cache/way_predictor.hh"
#include "common/name_table.hh"
#include "core/tft.hh"
#include "model/latency_table.hh"

namespace seesaw {

/** Line insertion policies (Section IV-B1). */
enum class InsertionPolicy : std::uint8_t
{
    /** Victim always drawn from the line's (PA-indexed) partition.
     *  Chosen by the paper: correct under base/super aliasing, cheaper
     *  installs, and partition-scoped coherence lookups. */
    FourWay,

    /** Victim drawn set-wide for base pages, partition-local for
     *  superpages. Slightly better hit rate (~1%) but loses the
     *  coherence benefit and can install the same line twice when a
     *  page is mapped both as a base page and as a superpage. */
    FourWayEightWay,
};

inline constexpr EnumName<InsertionPolicy> kInsertionPolicyNames[] = {
    {InsertionPolicy::FourWay, "4way"},
    {InsertionPolicy::FourWayEightWay, "4way8way"},
};

inline InsertionPolicy
parseInsertionPolicy(std::string_view name)
{
    return parseEnumName(kInsertionPolicyNames, name,
                         "insertion policy");
}

inline const char *
insertionPolicyName(InsertionPolicy policy)
{
    return enumName(kInsertionPolicyNames, policy);
}

/** SEESAW cache configuration. */
struct SeesawConfig
{
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 8;
    unsigned lineBytes = 64;
    unsigned partitionWays = 4; //!< paper: 16KB / 4-way partitions
    double freqGhz = 1.33;
    InsertionPolicy policy = InsertionPolicy::FourWay;
    bool wayPrediction = false; //!< combined WP+SEESAW (Fig 15)
    unsigned tftEntries = 16;
    unsigned tftAssoc = 1; //!< 1 = the paper's direct-mapped TFT
    ReplacementParams replacement; //!< tag-store victim policy; the
                                   //!< TFT shares it with a
                                   //!< decorrelated Random seed
};

/**
 * The SEESAW L1 data cache.
 */
class SeesawCache final : public L1Cache
{
  public:
    SeesawCache(const SeesawConfig &config, const LatencyTable &latency);

    L1AccessResult access(const L1Access &req) override;
    L1ProbeResult probe(Addr pa, bool invalidating) override;

    /** Speculative install pinned to the PA-named partition so a
     *  prefetched line can never violate partition placement, even
     *  under the 4way-8way policy. */
    Eviction prefetchFill(Addr pa, PageSize page_size) override;

    unsigned baseHitCycles() const override { return slowCycles_; }
    unsigned fastHitCycles() const override { return fastCycles_; }

    unsigned sweepRegion(Addr pa_base, std::uint64_t bytes) override;

    const SetAssocCache &tags() const override { return tags_; }
    SetAssocCache &tags() override { return tags_; }
    const StatGroup &stats() const override { return stats_; }
    StatGroup &stats() override { return stats_; }

    /** The page-size predictor; the TLB hierarchy's 2MB-fill hook and
     *  the OS's invlpg path drive it. */
    Tft &tft() { return tft_; }
    const Tft &tft() const { return tft_; }

    /** Way predictor (present only when configured). */
    const MruWayPredictor *wayPredictor() const
    {
        return predictor_.get();
    }

    unsigned numPartitions() const { return tags_.numPartitions(); }
    const SeesawConfig &config() const { return config_; }

    /** Coherence probes serviced (partition-scoped on a TFT hit). */
    std::uint64_t probes() const { return stProbes_->count(); }

  private:
    SeesawConfig config_;
    SetAssocCache tags_;
    Tft tft_;
    unsigned slowCycles_; //!< full-set (TFT miss) hit latency
    unsigned fastCycles_; //!< single-partition (TFT hit) hit latency
    unsigned tftCycles_;
    std::unique_ptr<MruWayPredictor> predictor_;
    StatGroup stats_;

    // Hot-path stat handles, registered once at construction: several
    // of these names are long enough that building a std::string key
    // per access would heap-allocate on the hot path.
    StatScalar *stAccesses_;
    StatScalar *stHits_;
    StatScalar *stMisses_;
    StatScalar *stSuperRefs_;
    StatScalar *stSuperRefsTftMiss_;
    StatScalar *stSuperRefsTftMissL1Hit_;
    StatScalar *stSuperRefsTftMissL1Miss_;
    StatScalar *stProbes_;
    StatScalar *stProbeHits_;
    StatScalar *stSweepEvictions_;

    SetAssocCache::InsertScope
    insertScopeFor(PageSize size) const
    {
        if (config_.policy == InsertionPolicy::FourWay)
            return SetAssocCache::InsertScope::Partition;
        return isSuperpage(size) ? SetAssocCache::InsertScope::Partition
                                 : SetAssocCache::InsertScope::FullSet;
    }
};

} // namespace seesaw

#endif // SEESAW_CORE_SEESAW_CACHE_HH

/**
 * @file
 * A generic set-associative tag store with optional way partitioning.
 *
 * This is the structural substrate shared by the baseline VIPT/PIPT
 * caches and the SEESAW cache. It models tags and MOESI line state;
 * victim side-state lives in a pluggable ReplacementPolicy, and timing
 * and energy live in the L1 wrappers so the same store can back
 * Fig 2a's pure miss-rate sweeps.
 */

#ifndef SEESAW_CACHE_SET_ASSOC_CACHE_HH
#define SEESAW_CACHE_SET_ASSOC_CACHE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "cache/replacement.hh"
#include "common/types.hh"

namespace seesaw {

/** Result of a tag-store search. */
struct TagLookup
{
    // Field order keeps the struct 8 bytes so it returns in one
    // register; a third eightbyte would spill through the stack on
    // every probe (measurable on the l1_probe hot loop).
    bool hit = false;
    bool wasPrefetched = false; //!< hit consumed a prefetched line
    unsigned way = 0;           //!< valid when hit
};

/**
 * A line pushed out by an insertion: a full snapshot of the victim,
 * taken before the insert overwrites it, so call sites never have to
 * re-read the line.
 */
struct Eviction
{
    bool valid = false; //!< an actual line was displaced
    Addr lineAddr = 0;  //!< line address (<< lineBits for bytes)
    CoherenceState state = CoherenceState::Invalid;
    PageSize pageSize = PageSize::Base4KB;
    bool prefetched = false; //!< victim was a never-demanded prefetch

    /** @return True when the victim requires a write-back. */
    bool dirty() const { return isDirtyState(state); }
};

/**
 * Set-associative tag store. Ways may be grouped into equal
 * partitions; searches and victim selection can be scoped to one
 * partition (SEESAW) or span the whole set (traditional VIPT).
 */
class SetAssocCache
{
  public:
    /**
     * @param size_bytes Total capacity.
     * @param assoc Ways per set (power of two).
     * @param line_bytes Line size (default 64B).
     * @param num_partitions Way groups per set (1 = unpartitioned).
     * @param replacement Victim-selection policy (default LRU).
     */
    SetAssocCache(std::uint64_t size_bytes, unsigned assoc,
                  unsigned line_bytes = 64, unsigned num_partitions = 1,
                  ReplacementParams replacement = {});

    /** @name Geometry. */
    /// @{
    unsigned numSets() const { return numSets_; }
    unsigned assoc() const { return assoc_; }
    unsigned lineBytes() const { return lineBytes_; }
    unsigned numPartitions() const { return numPartitions_; }
    unsigned waysPerPartition() const { return waysPerPartition_; }
    std::uint64_t sizeBytes() const
    {
        return static_cast<std::uint64_t>(numSets_) * assoc_ *
               lineBytes_;
    }
    /// @}

    /** Set index of an address: bits immediately above the byte
     *  offset. (For 64-set, 64B-line caches these lie inside the 4KB
     *  page offset, so VA and PA agree — the VIPT property.) */
    unsigned setIndex(Addr addr) const;

    /** Partition index of an address: the bits immediately above the
     *  set index (bit 12 upward for 64-set, 64B-line caches). */
    unsigned partitionIndex(Addr addr) const;

    /** Lowest address bit used as partition index. */
    unsigned partitionLowBit() const { return lineBits_ + setBits_; }

    /** Search all ways of the set for @p pa; touches the policy on a
     *  hit (and consumes the line's prefetched mark). */
    TagLookup lookup(Addr pa);

    /** Search only @p partition's ways; touches the policy on hit. */
    TagLookup lookupPartition(Addr pa, unsigned partition);

    /** Non-mutating full-set search (no policy update). */
    TagLookup peek(Addr pa) const;

    /** Where a victim may be drawn from on insertion. */
    enum class InsertScope : std::uint8_t {
        Partition, //!< the partition selected by the PA's partition bits
        FullSet,   //!< any way in the set (set-wide victims)
    };

    /**
     * Install the line for @p pa (must not already be present unless
     * duplicates are tolerated by the caller), drawing a policy victim
     * within @p scope. The new line starts in @p state; @p prefetched
     * marks a speculative install that no demand access has touched.
     * @return A snapshot of the displaced line, if any.
     */
    Eviction insert(Addr pa, InsertScope scope, CoherenceState state,
                    PageSize page_size, bool prefetched = false);

    /** Invalidate the line holding @p pa. @return Its pre-state. */
    std::optional<CoherenceState> invalidate(Addr pa);

    /** Mutable access to the line holding @p pa (coherence FSM). */
    CacheLine *findLine(Addr pa);
    const CacheLine *findLine(Addr pa) const;

    /**
     * Evict every line whose address falls within
     * [pa_base, pa_base + bytes) — the promotion sweep of §IV-C2.
     * @return Number of lines evicted.
     */
    unsigned sweepRegion(Addr pa_base, std::uint64_t bytes);

    /** Count of currently valid lines. */
    unsigned validLines() const;

    /** Direct line access by geometry (invariant audits, tests). */
    const CacheLine &
    lineAt(unsigned set, unsigned way) const
    {
        return setBase(set)[way];
    }

    /** Mutable line access by geometry: the L1 wrappers' hit paths
     *  update coherence state through the (set, way) a lookup already
     *  resolved instead of re-scanning the set. */
    CacheLine &
    lineAt(unsigned set, unsigned way)
    {
        return setBase(set)[way];
    }

    /** The replacement policy owning this store's victim side-state. */
    ReplacementPolicy &replacementPolicy() { return *policy_; }
    const ReplacementPolicy &
    replacementPolicy() const
    {
        return *policy_;
    }

    /** Visit every valid line (coherence invariant checks, dumps). */
    void forEachValidLine(
        const std::function<void(const CacheLine &)> &fn) const;

    /**
     * Verify the SEESAW placement invariant: every valid line sits in
     * the partition named by its own physical address.
     * @return True when the invariant holds (always true under the
     * `4way` insertion policy; violable under `4way-8way`).
     */
    bool checkPlacementInvariant() const;

    /** Line address (addr >> lineBits) of @p pa. */
    Addr lineAddrOf(Addr pa) const { return pa >> lineBits_; }

    /** First way of @p partition within a set. */
    unsigned
    partitionBase(unsigned partition) const
    {
        return partition * waysPerPartition();
    }

  private:
    unsigned assoc_;
    unsigned lineBytes_;
    unsigned lineBits_;
    unsigned numSets_;
    unsigned setBits_;
    bool powerOfTwoSets_ = true;
    unsigned numPartitions_;
    unsigned waysPerPartition_; //!< assoc_ / numPartitions_, cached
    unsigned partitionBits_;
    std::vector<CacheLine> lines_;
    std::optional<ReplacementPolicy> policy_;

    CacheLine *setBase(unsigned set) { return &lines_[set * assoc_]; }
    const CacheLine *
    setBase(unsigned set) const
    {
        return &lines_[set * assoc_];
    }

    TagLookup searchRange(Addr line_addr, unsigned set, unsigned begin,
                          unsigned end, bool touch);
};

} // namespace seesaw

#endif // SEESAW_CACHE_SET_ASSOC_CACHE_HH

/**
 * @file
 * The memory hierarchy below the L1: a private L2, the shared LLC
 * (24MB, Table II) and DRAM (51ns round trip). L2 and LLC are real tag
 * stores so that L1 hit-rate changes ripple into outer-level access
 * counts — which is why the paper reports whole-hierarchy energy.
 */

#ifndef SEESAW_CACHE_NEXT_LEVEL_HH
#define SEESAW_CACHE_NEXT_LEVEL_HH

#include <optional>

#include "cache/set_assoc_cache.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace seesaw {

/** Geometry and raw latencies of the outer hierarchy. */
struct OuterHierarchyParams
{
    std::uint64_t l2SizeBytes = 256 * 1024;
    unsigned l2Assoc = 8;
    double l2LatencyNs = 3.2;

    std::uint64_t llcSizeBytes = 24ULL * 1024 * 1024;
    unsigned llcAssoc = 16;
    double llcLatencyNs = 9.5;

    double dramLatencyNs = 51.0; //!< Table II round-trip latency
};

/** Which level served an L1 miss. */
enum class HitLevel : std::uint8_t { L2, LLC, Dram };

/** Outcome of one outer-hierarchy access. */
struct OuterAccessResult
{
    HitLevel level = HitLevel::L2;
    unsigned cycles = 0;     //!< total added miss penalty
    bool llcAccessed = false;
    bool dramAccessed = false;
};

/**
 * L2 + LLC + DRAM behind one L1.
 */
class OuterHierarchy
{
  public:
    /**
     * @param shared_llc When non-null, use this externally owned LLC
     *        tag store instead of a private one — multi-core systems
     *        give every core its own OuterHierarchy (private L2 and
     *        per-core stats) over one shared LLC, and no private
     *        LLC is built.
     */
    OuterHierarchy(const OuterHierarchyParams &params, double freq_ghz,
                   SetAssocCache *shared_llc = nullptr);

    /** Service an L1 miss for @p pa. Fills L2 and LLC on the way. */
    OuterAccessResult access(Addr pa, AccessType type);

    /** Accept a dirty line written back from the L1. */
    void writeback(Addr pa);

    /** Functionally install @p pa's line into the LLC without charging
     *  time, energy or statistics — steady-state warmup. */
    void prefill(Addr pa);

    unsigned l2Cycles() const { return l2Cycles_; }
    unsigned llcCycles() const { return llcCycles_; }
    unsigned dramCycles() const { return dramCycles_; }

    const StatGroup &stats() const { return stats_; }
    StatGroup &stats() { return stats_; }

    const SetAssocCache &l2() const { return l2_; }
    SetAssocCache &l2() { return l2_; }
    const SetAssocCache &llc() const { return *llc_; }

  private:
    SetAssocCache l2_;
    /** The private LLC, built only without a shared one: a 24MB tag
     *  store is about 13MB of host memory. */
    std::optional<SetAssocCache> ownLlc_;
    SetAssocCache *llc_; //!< &*ownLlc_, or the shared LLC
    unsigned l2Cycles_;
    unsigned llcCycles_;
    unsigned dramCycles_;
    StatGroup stats_;

    // Hot-path stat handles (registered once; see common/stats.hh).
    StatScalar *stL2Accesses_;
    StatScalar *stL2Hits_;
    StatScalar *stLlcAccesses_;
    StatScalar *stLlcHits_;
    StatScalar *stDramAccesses_;
    StatScalar *stL1Writebacks_;
};

} // namespace seesaw

#endif // SEESAW_CACHE_NEXT_LEVEL_HH

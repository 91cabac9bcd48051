/**
 * @file
 * Unified configuration and result types shared by every simulation:
 * one SystemConfig describes a system of N identical CoreComplexes
 * (core model, TLBs, TFT, L1D/L1I, private L2) over a coherence
 * fabric and one shared LLC; one RunResult carries the aggregate and
 * per-core statistics of a run. cores=1 is the paper's single-core
 * system; higher counts add exact coherence (sim/sim_engine.hh).
 */

#ifndef SEESAW_SIM_CONFIG_HH
#define SEESAW_SIM_CONFIG_HH

#include <string>
#include <string_view>
#include <vector>

#include "cache/next_level.hh"
#include "cache/prefetch/prefetch.hh"
#include "cache/replacement.hh"
#include "check/audit.hh"
#include "coherence/snoop_bus.hh"
#include "common/name_table.hh"
#include "core/seesaw_cache.hh"
#include "cpu/cpu_model.hh"
#include "mem/memhog.hh"
#include "mem/os_memory_manager.hh"

namespace seesaw {

/** Which L1 design the system instantiates. */
enum class L1Kind : std::uint8_t
{
    ViptBaseline,       //!< traditional VIPT (the paper's baseline)
    Pipt,               //!< PIPT with free associativity (Fig 14)
    Seesaw,             //!< the paper's design
    ViptWayPredicted,   //!< baseline + MRU way predictor (Fig 15 "WP")
    SeesawWayPredicted, //!< combined WP+SEESAW (Fig 15)
    Sipt,               //!< speculatively indexed (related work, §VII)
};

/** CLI names of the L1 designs (also the campaign cell labels). */
inline constexpr EnumName<L1Kind> kL1KindNames[] = {
    {L1Kind::ViptBaseline, "vipt"},
    {L1Kind::Pipt, "pipt"},
    {L1Kind::Seesaw, "seesaw"},
    {L1Kind::ViptWayPredicted, "wp"},
    {L1Kind::SeesawWayPredicted, "wpseesaw"},
    {L1Kind::Sipt, "sipt"},
};

inline L1Kind
parseL1Kind(std::string_view name)
{
    return parseEnumName(kL1KindNames, name, "L1 design");
}

inline const char *
l1KindName(L1Kind kind)
{
    return enumName(kL1KindNames, kind);
}

/** Full system configuration. */
struct SystemConfig
{
    CoreKind coreKind = CoreKind::OutOfOrder;
    L1Kind l1Kind = L1Kind::Seesaw;

    std::uint64_t l1SizeBytes = 32 * 1024;
    unsigned l1Assoc = 8;
    unsigned partitionWays = 4;
    double freqGhz = 1.33;
    InsertionPolicy policy = InsertionPolicy::FourWay;
    unsigned tftEntries = 16;
    unsigned tftAssoc = 1; //!< 1 = the paper's direct-mapped TFT

    /** Use an ARM/SPARC-style fully-associative unified L1 TLB instead
     *  of the Intel-style split L1 TLBs (the default follows the core
     *  preset). */
    bool unifiedL1Tlb = false;
    unsigned unifiedL1TlbEntries = 64;

    /** PIPT alternative: serial TLB latency in cycles. */
    unsigned piptTlbCycles = 2;

    /** SIPT alternative: reduced associativity (sets grow instead). */
    unsigned siptAssoc = 2;

    /**
     * Victim-selection policy for every tag store (L1D/L1I, TFT, and
     * all TLB levels). Each structure decorrelates the Random seed
     * with its own salt, and per-core structures additionally fold the
     * core's derived seed in, so Random stays deterministic and
     * core-count-independent. The default (LRU, matching the paper's
     * Table II) is pinned bit-identical to the historical behaviour.
     */
    ReplacementParams replacement;

    /**
     * L1D prefetch engine (per core). PrefetchKind::None — the default
     * — is pinned bit-identical to a build without the engine.
     * Candidates that would cross out of the triggering access's page
     * are dropped as illegal (a SEESAW partition is named by the
     * page's translation, so a crossing prefetch would have to
     * re-translate and could land in a different partition).
     */
    PrefetchParams prefetch;

    OsParams os;
    MemhogParams memhog;
    double memhogFraction = 0.0;

    OuterHierarchyParams outer;

    /**
     * Number of CoreComplexes the engine drives (1-64). cores=1
     * reproduces the classic single-core system bit-for-bit and
     * models coherence as the paper's stochastic probe load; cores>1
     * runs one workload thread per core over a shared heap with exact
     * coherence over `fabric`.
     */
    unsigned cores = 1;

    /** Coherence fabric. At cores=1 this selects the synthetic probe
     *  stream's shape (directory-filtered vs snoopy broadcast; None
     *  disables probes); at cores>1 it selects the real fabric. */
    CoherenceKind fabric = CoherenceKind::Directory;

    /** Instruction budget, per core. */
    std::uint64_t instructions = 2'000'000;

    /** Instructions executed per core before measurement starts:
     *  warms caches, TLBs and the TFT, and amortises cold
     *  (first-touch) misses that the paper's 10-billion-instruction
     *  traces never see. */
    std::uint64_t warmupInstructions = 150'000;

    std::uint64_t seed = 1;

    /** §IV-B3: scheduler assumes the fast hit time only while the 2MB
     *  L1 TLB holds at least a quarter of its capacity. */
    bool schedulerCounterPolicy = true;

    /** Context-switch interval (TFT flush; no ASID tags, §IV-C3),
     *  per core. 0 disables. */
    std::uint64_t contextSwitchInterval = 1'000'000;

    /** khugepaged pass interval in instructions (0 disables). */
    std::uint64_t promotionInterval = 500'000;

    /** Splinter-event interval in instructions (0 disables). */
    std::uint64_t splinterInterval = 4'000'000;

    /** TLB-shootdown / sweep cost for promotion & splinter events. */
    unsigned shootdownCycles = 175;

    /**
     * Also model a 32KB 8-way L1 instruction cache (Table II) fed by a
     * synthetic fetch stream, applying SEESAW to it when l1Kind is a
     * SEESAW kind — the §V extension the paper flags as valuable for
     * cloud workloads with large instruction footprints.
     */
    bool modelInstructionCache = false;

    /** L1I design selection when modelInstructionCache is set. */
    enum class ICacheKind : std::uint8_t
    {
        FollowL1, //!< SEESAW iff l1Kind is a SEESAW kind (default)
        Vipt,     //!< force a baseline VIPT L1I
        Seesaw,   //!< force a SEESAW L1I
    };
    ICacheKind icacheKind = ICacheKind::FollowL1;

    /** THP eligibility of the text segment (2MB text mappings). */
    double codeThpEligibleFraction = 0.85;

    /**
     * Back the workload's heap with explicit 1GB superpages
     * (hugetlbfs-style) instead of THP 2MB pages — the §IV
     * generalisation. Falls back to THP for any tail the 1GB
     * allocator cannot satisfy.
     */
    bool useOneGbHeap = false;

    /**
     * Replay an externally captured binary trace (workload/trace.hh)
     * instead of the synthetic reference stream. Addresses are mapped
     * on demand (2MB chunks, THP-eligible per the workload spec); the
     * trace loops if shorter than the instruction budget.
     */
    std::string tracePath;

    /** Invariant-audit cadence (src/check). Modes other than Off need
     *  a build with -DSEESAW_AUDIT=ON; otherwise a warning is issued
     *  and no audits run. */
    check::AuditOptions audit;
};

/** Per-core slice of a run (populated for every core). */
struct PerCoreResult
{
    std::uint64_t instructions = 0;
    Cycles cycles = 0;
    double ipc = 0.0;
    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t tftHits = 0;
    std::uint64_t squashes = 0;
    std::uint64_t pageFaults = 0;

    bool operator==(const PerCoreResult &) const = default;
};

/** Everything a bench needs from one simulation. */
struct RunResult
{
    std::string workload;
    std::uint64_t instructions = 0;
    Cycles cycles = 0;
    double ipc = 0.0;
    double runtimeNs = 0.0;

    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    double l1Mpki = 0.0;
    std::uint64_t fastHits = 0; //!< completed at the fast latency

    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t llcAccesses = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t dramAccesses = 0;

    std::uint64_t tftLookups = 0;
    std::uint64_t tftHits = 0;
    std::uint64_t superpageRefs = 0;
    std::uint64_t superpageRefsTftMiss = 0;
    std::uint64_t superpageRefsTftMissL1Hit = 0;
    std::uint64_t superpageRefsTftMissL1Miss = 0;

    double superpageCoverage = 0.0;    //!< footprint fraction (Fig 3)
    double superpageRefFraction = 0.0; //!< reference fraction (§V)

    double energyTotalNj = 0.0;
    double l1CpuDynamicNj = 0.0;
    double l1CoherenceDynamicNj = 0.0;
    double l1LeakageNj = 0.0;
    double outerNj = 0.0;
    double translationNj = 0.0;

    std::uint64_t l1iAccesses = 0;
    std::uint64_t l1iMisses = 0;

    std::uint64_t squashes = 0;

    /** @name Coherence. Synthetic probe load at cores=1; real fabric
     *  probes (each a lookup in an actual remote L1) at cores>1. */
    /// @{
    std::uint64_t probes = 0;
    std::uint64_t probeHits = 0;
    std::uint64_t probeInvalidations = 0;
    std::uint64_t ownerSupplies = 0; //!< cache-to-cache transfers
                                     //!< (multi-core runs only)
    /// @}
    double wpAccuracy = 0.0;

    std::uint64_t promotions = 0;
    std::uint64_t splinters = 0;
    std::uint64_t pageFaults = 0;

    /** @name L1D prefetch engine (zero when PrefetchKind::None). */
    /// @{
    std::uint64_t prefetchIssued = 0;
    std::uint64_t prefetchUseful = 0;  //!< demand hit on prefetched line
    std::uint64_t prefetchLate = 0;    //!< candidate already resident
    std::uint64_t prefetchIllegalCrossing = 0; //!< dropped: out of page
    /// @}

    /** Core count of the run, and one slice per core. */
    unsigned cores = 1;
    std::vector<PerCoreResult> perCore;

    /** Field-wise equality, so the harness can assert that parallel
     *  and serial campaign executions are bit-identical. */
    bool operator==(const RunResult &) const = default;
};

} // namespace seesaw

#endif // SEESAW_SIM_CONFIG_HH

/**
 * @file
 * One core of the simulated system. CoreFrontEnd is its
 * config-invariant half: the reference/fetch streams and retirement
 * clock. CoreComplex is one configuration's half: the core timing
 * model, TFT, an L1D of the configured design, the optional L1I and
 * the private L2 (plus an LLC reference — its own at cores=1, the
 * engine's shared one otherwise). The engine
 * (sim/multi_config_engine.hh) owns the front ends and TLBs, drives N
 * complexes per substrate over a coherence fabric and composes the
 * per-access phases declared here, so cores=1 executes exactly the
 * classic single-core system.
 */

#ifndef SEESAW_SIM_CORE_COMPLEX_HH
#define SEESAW_SIM_CORE_COMPLEX_HH

#include <memory>
#include <string>

#include "cache/baseline_caches.hh"
#include "cache/prefetch/prefetch.hh"
#include "coherence/fabric.hh"
#include "coherence/probe_engine.hh"
#include "model/latency_table.hh"
#include "sim/config.hh"
#include "tlb/tlb_hierarchy.hh"
#include "workload/code_stream.hh"
#include "workload/reference_stream.hh"
#include "workload/trace.hh"
#include "workload/workload_spec.hh"

namespace seesaw {

/**
 * One core's config-invariant front end. Only the engine's recording
 * half (or a solo driver composing the phases itself) advances it;
 * every substrate's complex on this core reads the same one.
 */
class CoreFrontEnd
{
  public:
    /**
     * @param core_seed This core's decorrelated seed
     *        (SimEngine::coreSeed); equals config.seed for core 0.
     */
    CoreFrontEnd(const SystemConfig &config, const WorkloadSpec &workload,
                 Addr heap_base, Addr text_base, CoreId core,
                 std::uint64_t core_seed);

    /** Next reference from the trace (re-opened when it runs out) or
     *  the synthetic stream. Inline, like takeFetchLines: every step
     *  calls both. */
    MemRef nextRef() { return trace_ ? nextTraceRef() : stream_->next(); }

    /** Accrue @p instructions against the 4-instructions-per-line
     *  fetch carry. @return whole fetch lines to perform now (none
     *  without an instruction cache). */
    std::uint64_t
    takeFetchLines(std::uint64_t instructions)
    {
        if (!code_)
            return 0;
        // 16-byte fetch groups: one 64B line fetch per ~4 instructions.
        fetchCarry_ += static_cast<double>(instructions) / 4.0;
        auto fetches = static_cast<std::uint64_t>(fetchCarry_);
        fetchCarry_ -= static_cast<double>(fetches);
        return fetches;
    }

    /** The next instruction-fetch line (modelInstructionCache). */
    Addr nextFetchLine() { return code_->nextFetchLine(); }

    /** The synthetic stream, built in trace runs too: complexes
     *  prefill from its hot ranges before the first draw. */
    const ReferenceStream &stream() const { return *stream_; }

    /** Instructions retired by this core, including warmup (drives the
     *  per-core OS-event schedule). */
    std::uint64_t retiredTotal = 0;

    /** Next context-switch point in retiredTotal terms. */
    std::uint64_t nextContextSwitch = 0;

  private:
    MemRef nextTraceRef();

    std::string tracePath_;
    std::unique_ptr<ReferenceStream> stream_;
    std::unique_ptr<TraceReader> trace_; //!< replaces stream_ if set
    std::unique_ptr<CodeStream> code_;   //!< modelInstructionCache
    double fetchCarry_ = 0.0;
};

/**
 * One core's per-configuration substrate. Construction mirrors the
 * original single-core System exactly (same component order, same RNG
 * salts on the per-core seed) so that core 0 of a cores=1 engine is
 * bit-identical to the pre-refactor System.
 */
class CoreComplex
{
  public:
    /**
     * @param front_end This core's front end; its stream must not have
     *        been drawn from yet (the LLC prefill reads its hot ranges).
     * @param tlb The TLB hierarchy of this core's TLB group.
     * @param core_seed This core's decorrelated seed
     *        (SimEngine::coreSeed); equals config.seed for core 0.
     * @param shared_llc Non-null at cores>1: the engine-owned LLC all
     *        complexes share behind their private L2s.
     */
    CoreComplex(const SystemConfig &config, const WorkloadSpec &workload,
                const LatencyTable &latency, OsMemoryManager &os,
                EnergyModel &energy, Asid asid, CoreFrontEnd &front_end,
                TlbHierarchy &tlb, Addr text_base, CoreId core,
                std::uint64_t core_seed, SetAssocCache *shared_llc);
    ~CoreComplex();

    /** The front end's next reference. For solo drivers only, like
     *  doInstructionFetches: replay must not advance shared state. */
    MemRef nextRef() { return frontEnd_.nextRef(); }

    /** Account instruction fetches for @p instructions committed: for
     *  each front-end fetch line, probeCodeTft, a TLB lookup,
     *  chargeTranslation and finishFetch. */
    void doInstructionFetches(std::uint64_t instructions);

    /**
     * @name Per-access phases (sim/multi_config_engine.hh).
     *
     * One data access is: probeDataTft, a TLB lookup (on a fault:
     * demand paging and a second lookup), chargeTranslation of the
     * first lookup, then finishMemoryAccess of the last. The engine
     * runs the lookups once per TLB group on its front end and replays
     * the other phases per substrate, so each substrate's state
     * sequence is bit-identical to a solo run.
     */
    /// @{

    /** Pre-TLB TFT probe state for @p va (-1 when no D-side TFT). */
    int probeDataTft(Addr va);

    /** Pre-TLB I-side TFT probe for @p va (-1 when no I-side TFT). */
    int probeCodeTft(Addr va);

    /**
     * Charge the translation energy/fault costs implied by the *first*
     * TLB lookup of an access: L1-TLB probe energy, L2-TLB energy on an
     * L1 miss, walk energy on a walk, and — when the lookup faulted —
     * the page-fault count and stall (the demand-paging map and the
     * retry lookup are the caller's).
     */
    void chargeTranslation(const TlbLookupResult &tr);

    /** Steps 2-7 of a data access: fabric ordering, L1 access, miss
     *  handling, core timing, TLB penalty, prefetch. @p fabric is null
     *  for single-core runs (synthetic probe load instead). @p tr is
     *  the final (non-faulting) lookup result and @p superpages_ample
     *  the TLB's superpagesAmple() right after it (the scheduler's
     *  counter). @return true when the access was a write, an L1
     *  miss or issued a prefetch — the events that can change global
     *  coherence state. */
    bool finishMemoryAccess(const MemRef &ref, const TlbLookupResult &tr,
                            int tft_probe, CoherenceFabric *fabric,
                            bool superpages_ample);

    /** finishMemoryAccess reading the counter from tlb() (perfbench). */
    bool
    finishMemoryAccess(const MemRef &ref, const TlbLookupResult &tr,
                       int tft_probe, CoherenceFabric *fabric)
    {
        return finishMemoryAccess(ref, tr, tft_probe, fabric,
                                  tlb_.superpagesAmple());
    }

    /** One fetched line's L1I access + miss handling + TLB penalty. */
    void finishFetch(Addr va, const TlbLookupResult &tr, int tft_probe);

    /**
     * Route a 2MB-fill notification to the TFT owning @p va_base (the
     * I-side TFT for text addresses when an L1I is modelled, the
     * D-side TFT otherwise). This is the single superpage hook; a
     * multi-config TLB group records it for every member complex.
     */
    void markTftRegion(Addr va_base);

    /// @}

    /** Zero every measured per-core counter (after warmup). */
    void resetMeasurement();

    /** @name Component access. */
    /// @{
    /** This core's TLB group's hierarchy (engine-owned); activeTlb()
     *  is perfbench's name for it. */
    TlbHierarchy &tlb() { return tlb_; }
    TlbHierarchy &activeTlb() { return tlb_; }
    L1Cache &l1() { return *l1_; }
    L1Cache *l1i() { return l1i_.get(); }
    /** nullptr unless an SEESAW kind (cached; hot path). */
    SeesawCache *seesawL1() { return seesawD_; }
    SeesawCache *seesawL1i() { return seesawI_; }
    CpuModel &cpu() { return *cpu_; }
    OuterHierarchy &outer() { return *outer_; }
    /** The synthetic probe engine (cores=1 only), or nullptr. */
    ProbeEngine *probeEngine() { return probes_.get(); }
    CoreId core() const { return core_; }
    std::uint64_t pageFaults() const { return pageFaults_; }
    /// @}

    /** @name L1D prefetch engine counters (zero when Kind::None). */
    /// @{
    std::uint64_t prefetchIssued() const { return prefetchIssued_; }
    std::uint64_t prefetchUseful() const { return prefetchUseful_; }
    std::uint64_t prefetchLate() const { return prefetchLate_; }
    std::uint64_t prefetchIllegalCrossing() const
    {
        return prefetchIllegalCrossing_;
    }
    /// @}

    /** The front end's retirement clock and context-switch point, as
     *  perfbench's traced run drives them. */
    std::uint64_t &retiredTotal_;
    std::uint64_t &nextContextSwitch_;

  private:
    const SystemConfig &config_;
    EnergyModel &energy_;
    CoreFrontEnd &frontEnd_;
    TlbHierarchy &tlb_;

    std::unique_ptr<L1Cache> l1_;
    std::unique_ptr<OuterHierarchy> outer_;
    std::unique_ptr<CpuModel> cpu_;
    std::unique_ptr<ProbeEngine> probes_;

    // Optional L1I application (§V).
    std::unique_ptr<L1Cache> l1i_;

    /** Cached downcasts of l1_/l1i_ when they are SEESAW caches, so
     *  the per-access and per-fetch paths never pay a dynamic_cast. */
    SeesawCache *seesawD_ = nullptr;
    SeesawCache *seesawI_ = nullptr;

    /** L1 tag-store geometry, cached so the per-access energy calls
     *  skip the virtual tags() accessor. */
    std::uint64_t l1SizeBytes_ = 0;
    unsigned l1Assoc_ = 0;
    unsigned l1LineBytes_ = 64;
    Addr textBase_ = 0;

    Asid asid_ = 0;
    CoreId core_ = 0;
    std::uint64_t pageFaults_ = 0;

    /** L1D prefetch engine (nullptr when PrefetchKind::None). */
    std::unique_ptr<PrefetchEngine> prefetcher_;
    std::vector<Addr> pfCandidates_; //!< scratch (avoids per-access
                                     //!< allocation)
    std::uint64_t prefetchIssued_ = 0;
    std::uint64_t prefetchUseful_ = 0;
    std::uint64_t prefetchLate_ = 0;
    std::uint64_t prefetchIllegalCrossing_ = 0;

    /**
     * Train the prefetcher on one demand access and issue the legal
     * candidates as demand-like read fills tagged prefetched.
     * Candidates outside the triggering translation's page are dropped
     * (a different page could live in a different SEESAW partition and
     * would need its own translation). @return any fill issued (a
     * coherence transition the caller must report).
     */
    bool issuePrefetches(const MemRef &ref, const TlbLookupResult &tr,
                         bool demand_miss, CoherenceFabric *fabric);

    bool isSeesawKind() const
    {
        return config_.l1Kind == L1Kind::Seesaw ||
               config_.l1Kind == L1Kind::SeesawWayPredicted;
    }
};

} // namespace seesaw

#endif // SEESAW_SIM_CORE_COMPLEX_HH

/**
 * @file
 * The simulator's one run loop: a single trace pass drives N
 * per-config substrates (L1/L2 tag stores, TFT, way predictor, energy
 * and stat groups) over one config-invariant front end (workload
 * streams, page table, translation cache, OS memory manager, TLB
 * groups, per-core RNGs). OS events — promotion, splinter, unmap,
 * context switch — broadcast to every substrate, and each substrate's
 * state sequence is bit-identical to running its configuration alone
 * (the DEW structure, arXiv 1506.03181, applied to the SEESAW design
 * space). A solo run is the N=1 case: SimEngine (sim/sim_engine.hh)
 * is a facade over a one-substrate engine.
 *
 * What is shared and what forks:
 *  - Shared, exactly once per pass: the OS memory manager (buddy
 *    allocator, page tables, translation cache, khugepaged), memhog
 *    fragmentation, the per-core front ends (reference/fetch streams,
 *    retirement clocks), the OS-event RNG and schedule (keyed on
 *    retired instructions, which every substrate agrees on by
 *    construction), and one TLB hierarchy per core per *TLB group* —
 *    substrates whose configs imply identical TLB geometry share
 *    lookups. The engine owns all of it; each complex holds
 *    references to its core's front end and its group's hierarchy.
 *  - Forked per substrate: L1D/L1I tag stores and TFTs, way
 *    predictors, private L2s + LLC, the coherence fabric, CPU timing,
 *    the energy model, and the invariant auditor (per-substrate audit
 *    contexts, so a desynced substrate is caught individually).
 *
 * Front-end compatibility (frontEndKey) is the contract: configs in
 * one pass must agree on every field that feeds the shared state.
 *
 * A pass runs in two halves. The front end (calling thread) draws each
 * reference, does the shared TLB lookups, demand paging and OS events,
 * and appends one step record per access to a batch. Each substrate
 * then replays the batch on its own: the recorded lookups, TFT marks
 * and OS events drive exactly the operations, in exactly the order, a
 * solo run performs. Substrates never feed back into the front end,
 * so the front end need not wait for them: with more than one thread,
 * filled batches go through a bounded ring, and replay threads replay
 * them (each substrate in order, on one thread at a time) while the
 * calling thread records the next ones. A single-core solo run thus
 * records on one thread and replays on a second; a multi-core one
 * replays inline, since its replay outweighs recording. With one thread the calling thread
 * replays each batch in place as soon as it fills. Every result stays
 * bit-identical at any thread count.
 */

#ifndef SEESAW_SIM_MULTI_CONFIG_ENGINE_HH
#define SEESAW_SIM_MULTI_CONFIG_ENGINE_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "sim/core_complex.hh"

namespace seesaw::check {
class InvariantAuditor;
} // namespace seesaw::check

namespace seesaw {

/**
 * Drives N compatible SystemConfigs through one trace pass.
 * Construct with the configs (asserts pairwise front-end
 * compatibility), then run() once; results arrive in config order.
 */
class MultiConfigEngine
{
  public:
    /**
     * @param replay_threads Host threads the pass runs on, counting
     *        the calling thread, which records; 0 picks
     *        min(substrates + 1, defaultJobs()). Clamped to
     *        [1, substrates + 1] (at most one replay thread per
     *        substrate), and forced to 1 for a lone substrate of
     *        more than one core (whose replay outweighs recording)
     *        and when any substrate audits Periodic/Paranoid (those
     *        audits read shared state mid-run, so the pass runs in
     *        lockstep). One thread
     *        replays inline, with no ring. Results do not depend on
     *        it.
     */
    MultiConfigEngine(std::vector<SystemConfig> configs,
                      const WorkloadSpec &workload,
                      unsigned replay_threads = 0);
    ~MultiConfigEngine();

    /** The group TLBs' fill hooks hold this engine's address. */
    MultiConfigEngine(const MultiConfigEngine &) = delete;
    MultiConfigEngine &operator=(const MultiConfigEngine &) = delete;

    /** Execute the shared per-core instruction budget once; @return
     *  one RunResult per config, in constructor order. */
    std::vector<RunResult> run();

    /** Whether two configs can share one front end (and therefore one
     *  pass): every config-invariant field must match. */
    static bool compatibleFrontEnds(const SystemConfig &a,
                                    const SystemConfig &b);

    /** Canonical serialization of the config-invariant fields — the
     *  harness groups cells by (workload, this key). */
    static std::string frontEndKey(const SystemConfig &config);

    /** @name Component access (tests / advanced drivers). */
    /// @{
    unsigned substrates() const
    {
        return static_cast<unsigned>(substrates_.size());
    }
    const SystemConfig &config(unsigned substrate) const
    {
        return configs_[substrate];
    }
    /** Simulated cores (every substrate has the same count). */
    unsigned cores() const
    {
        return static_cast<unsigned>(cores_.size());
    }
    CoreComplex &complex(unsigned substrate, unsigned core = 0)
    {
        return *substrates_[substrate].complexes[core];
    }
    EnergyModel &energy(unsigned substrate)
    {
        return *substrates_[substrate].energy;
    }
    /** @p substrate's coherence fabric (cores>1), or nullptr. */
    CoherenceFabric *fabric(unsigned substrate)
    {
        return substrates_[substrate].fabric.get();
    }
    /** @p substrate's exact directory, or nullptr unless a cores>1
     *  directory fabric is active. */
    ExactDirectory *directory(unsigned substrate)
    {
        return substrates_[substrate].directory;
    }
    /** The shared TLB hierarchy serving @p substrate on @p core. */
    TlbHierarchy &tlb(unsigned substrate, unsigned core = 0)
    {
        return *groups_[substrates_[substrate].tlbGroup].tlbs[core];
    }
    check::InvariantAuditor *auditor(unsigned substrate)
    {
        return substrates_[substrate].auditor.get();
    }
    OsMemoryManager &os() { return *os_; }
    Asid asid() const { return asid_; }
    /** Threads run() uses, the recording one included (see the
     *  constructor). */
    unsigned replayThreads() const { return replayThreads_; }
    /// @}

    /**
     * Unmap [va_base, va_base+bytes) and broadcast the shootdown to
     * every substrate: invlpg on each shared TLB group, plus TFT
     * region invalidations in every SEESAW L1D/L1I. The run loop's
     * promotion/splinter events use the same broadcast structure; this
     * entry point is for OS-driven unmaps (and their tests), outside
     * run().
     */
    void unmapBroadcast(Addr va_base, std::uint64_t bytes);

  private:
    class ReplayRing;

    /** Substrates sharing one TLB geometry share one hierarchy per
     *  core, whose superpage hook broadcasts to every member. */
    struct TlbGroup
    {
        std::vector<std::unique_ptr<TlbHierarchy>> tlbs; //!< per core
    };

    /** Everything that forks per configuration. */
    struct Substrate
    {
        const SystemConfig *config = nullptr;
        std::size_t tlbGroup = 0;
        std::unique_ptr<EnergyModel> energy;
        std::unique_ptr<SetAssocCache> sharedLlc;
        std::vector<std::unique_ptr<CoreComplex>> complexes;
        std::unique_ptr<CoherenceFabric> fabric;
        ExactDirectory *directory = nullptr;
        std::unique_ptr<check::InvariantAuditor> auditor;
    };

    /** @name Step records: the front end's output, replayed by every
     *  substrate. Indices point into the owning StepBatch's arrays. */
    /// @{

    /** One TLB group's lookup, plus the group's superpage-occupancy
     *  reading where the scheduler samples it (final data lookup). */
    struct GroupLookup
    {
        TlbLookupResult tr;
        bool superpagesAmple = false;
    };

    /** A 2MB-fill notification from a group's TLB: mark the TFT region
     *  in every member substrate. */
    struct TftMark
    {
        std::size_t group = 0;
        Addr vaBase = 0;
    };

    /** One instruction-fetch line: its group lookups start at
     *  @c lookup; marks up to @c marksEnd precede its charge. */
    struct FetchRecord
    {
        Addr va = 0;
        std::uint32_t lookup = 0;
        std::uint32_t marksEnd = 0;
    };

    /** The substrate side of one OS event. */
    struct EventRecord
    {
        enum class Kind : std::uint8_t
        {
            ContextSwitch, //!< flush the stepping core's D-side TFT
            Promotion,     //!< sweep old PAs [pasBegin, pasEnd), stall
            Splinter,      //!< drop the TFT region at va, stall
        };
        Kind kind = Kind::ContextSwitch;
        Addr va = 0;
        std::uint32_t pasBegin = 0;
        std::uint32_t pasEnd = 0;
    };

    /** One access on one core. Group lookups start at @c lookup (a
     *  second set follows when the access faulted: the retry);
     *  marks, fetches and events run up to their end indices. */
    struct StepRecord
    {
        MemRef ref;
        CoreId core = 0;
        bool faulted = false;
        std::uint32_t lookup = 0;
        std::uint32_t marksEnd = 0;
        std::uint32_t fetchesEnd = 0;
        std::uint32_t eventsEnd = 0;
    };

    /** Cache-line aligned: the front end grows one slot's vectors
     *  while a replay thread reads its neighbour's. */
    struct alignas(64) StepBatch
    {
        std::vector<StepRecord> steps;
        std::vector<GroupLookup> lookups;
        std::vector<TftMark> marks;
        std::vector<FetchRecord> fetches;
        std::vector<EventRecord> events;
        std::vector<Addr> promotedPas;

        void clear();
    };
    /// @}

    /** Front-end half of one access on core @p c: draw, translate,
     *  page, tick the OS, and append the step to the filling batch.
     *  @return instructions retired. */
    std::uint64_t recordStep(CoreId c, std::uint64_t room);
    /** Append core @p c's group lookups of @p va to the filling batch.
     *  @return the index of the first. */
    std::uint32_t recordLookups(CoreId c, Addr va);
    void osTick(CoreId c);
    void applyPromotion(const PromotionEvent &event);
    void applySplinter(const SplinterEvent &event);
    /** Route a group TLB's 2MB fill: into the step being recorded
     *  during run(), straight to the members otherwise. */
    void onGroupFill(std::size_t group, CoreId c, Addr va_base);

    /** Replay half: run every recorded step through one substrate. */
    void replay(Substrate &sub, const StepBatch &batch);
    void replayEvent(Substrate &sub, const StepBatch &batch,
                     const EventRecord &event, CoreId c);

    /** @p ring is null when the pass runs on one thread. */
    void runLoop(std::uint64_t per_core_budget, ReplayRing *ring);
    /** Replay the filling batch: inline when @p ring is null, then
     *  refill the same batch; otherwise publish it to the ring and
     *  start filling the next free slot. */
    void dispatch(ReplayRing *ring);
    void resetMeasurement();
    void setupAuditor(Substrate &sub);

    WorkloadSpec workload_;
    LatencyTable latency_;
    std::vector<SystemConfig> configs_;
    Rng eventRng_;

    std::unique_ptr<OsMemoryManager> os_;
    std::unique_ptr<Memhog> memhog_;
    Asid asid_ = 0;
    Addr heapBase_ = 0;
    Addr textBase_ = 0;

    std::vector<CoreFrontEnd> cores_;
    std::vector<TlbGroup> groups_;
    std::vector<Substrate> substrates_;

    std::uint64_t nextPromotion_ = 0;
    std::uint64_t nextSplinter_ = 0;

    /** @name Replay pipeline. */
    /// @{
    unsigned replayThreads_ = 1;
    /** 1 in lockstep (Periodic/Paranoid audits: replay each step
     *  before the front end draws the next one); otherwise set by the
     *  substrate count. */
    std::size_t batchSteps_ = 1;
    /** Slots of the replay ring: four 1024-step batches of a solo
     *  pass are about 400KB of records. */
    static constexpr std::size_t kRingSlots = 4;
    /** The replay ring's batches; inline replay uses only the first. */
    std::array<StepBatch, kRingSlots> ring_;
    StepBatch *filling_ = &ring_[0]; //!< the front end's batch
    bool recording_ = false;         //!< inside run()
    /// @}
};

} // namespace seesaw

#endif // SEESAW_SIM_MULTI_CONFIG_ENGINE_HH

/**
 * @file
 * A test-local solo run loop: one config's whole run composed directly
 * from the public CoreComplex phase API. Each complex draws from its
 * core's front end (nextRef) and looks up in its TLB group's
 * hierarchy (tlb()), demand-pages in place, and the OS-event schedule
 * (context switch, promotion, splinter) runs on the loop's own
 * retirement clocks and is applied the moment it fires — no step
 * records, no batches, no replay.
 *
 * This is the composition the engine's record/replay split must
 * reproduce. Keeping it apart from the engine's run loop lets the
 * one-pass equivalence tests compare two independent loops instead of
 * the engine with itself. Only the object graph comes from a SimEngine
 * (its run() is never called).
 */

#ifndef SEESAW_TESTS_SIM_SOLO_REFERENCE_HH
#define SEESAW_TESTS_SIM_SOLO_REFERENCE_HH

#include <algorithm>
#include <vector>

#include "check/invariant_auditor.hh"
#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "sim/sim_engine.hh"

namespace seesaw {

class SoloReference
{
  public:
    SoloReference(const SystemConfig &config, const WorkloadSpec &workload)
        : engine_(config, workload), workload_(workload),
          eventRng_(config.seed ^ 0xe7e27ULL),
          nextPromotion_(config.promotionInterval),
          nextSplinter_(config.splinterInterval),
          retiredTotal_(config.cores, 0),
          nextContextSwitch_(config.cores, config.contextSwitchInterval)
    {
    }

    RunResult
    run()
    {
        const SystemConfig &cfg = engine_.config();
        if (cfg.warmupInstructions > 0) {
            runLoop(cfg.warmupInstructions);
            for (unsigned c = 0; c < engine_.cores(); ++c)
                engine_.complex(c).resetMeasurement();
            engine_.energy().reset();
            if (engine_.fabric())
                engine_.fabric()->resetStats();
        }
        runLoop(cfg.instructions);

        std::vector<CoreComplex *> cxs;
        Cycles max_cycles = 0;
        for (unsigned c = 0; c < engine_.cores(); ++c) {
            cxs.push_back(&engine_.complex(c));
            max_cycles = std::max(max_cycles, cxs.back()->cpu().cycles());
        }
        if (check::InvariantAuditor *auditor = engine_.auditor())
            auditor->onEndOfRun(max_cycles);
        for (CoreComplex *cx : cxs) {
            engine_.energy().addL1Leakage(cfg.l1SizeBytes, max_cycles,
                                          cfg.freqGhz);
            if (cx->l1i())
                engine_.energy().addL1Leakage(32 * 1024, max_cycles,
                                              cfg.freqGhz);
        }
        engine_.energy().addBackground(max_cycles, cfg.freqGhz);
        return collectRunResults(cfg, workload_, cxs, engine_.energy(),
                                 engine_.fabric(), engine_.os(),
                                 engine_.asid(), max_cycles);
    }

  private:
    SimEngine engine_;
    WorkloadSpec workload_;
    Rng eventRng_;
    std::uint64_t nextPromotion_;
    std::uint64_t nextSplinter_;
    /** Per core: instructions retired including warmup, and the next
     *  context-switch point in those terms. */
    std::vector<std::uint64_t> retiredTotal_;
    std::vector<std::uint64_t> nextContextSwitch_;

    /** Every core round-robin, one reference at a time. */
    void
    runLoop(std::uint64_t per_core_budget)
    {
        std::vector<std::uint64_t> retired(engine_.cores(), 0);
        bool progress = true;
        while (progress) {
            progress = false;
            for (CoreId c = 0; c < engine_.cores(); ++c) {
                if (retired[c] < per_core_budget) {
                    retired[c] += step(c, per_core_budget - retired[c]);
                    progress = true;
                }
            }
        }
    }

    std::uint64_t
    step(CoreId c, std::uint64_t room)
    {
        CoreComplex &cx = engine_.complex(c);
        const Asid asid = engine_.asid();
        MemRef ref = cx.nextRef();
        if (ref.gap + 1ULL > room)
            ref.gap = static_cast<std::uint32_t>(room > 0 ? room - 1 : 0);
        cx.cpu().retireNonMemory(ref.gap);

        const int tft_probe = cx.probeDataTft(ref.va);
        TlbLookupResult tr = cx.tlb().lookup(asid, ref.va);
        cx.chargeTranslation(tr);
        if (tr.fault) {
            engine_.os().mapAnonymous(asid,
                                      alignDown(ref.va, 2 * 1024 * 1024),
                                      2 * 1024 * 1024,
                                      workload_.thpEligibleFraction);
            tr = cx.tlb().lookup(asid, ref.va);
            SEESAW_ASSERT(!tr.fault, "fault persists after demand paging");
        }
        const bool transition = cx.finishMemoryAccess(
            ref, tr, tft_probe, engine_.fabric(),
            cx.tlb().superpagesAmple());

        const std::uint64_t retired = ref.gap + 1ULL;
        cx.doInstructionFetches(retired);
        retiredTotal_[c] += retired;
        if (ProbeEngine *probes = cx.probeEngine())
            probes->tick(retired);
        osTick(c);
        if (check::InvariantAuditor *auditor = engine_.auditor()) {
            if (engine_.fabric() && transition)
                auditor->onCoherenceTransition(cx.cpu().cycles());
            auditor->onEvent(retired, cx.cpu().cycles());
        }
        return retired;
    }

    void
    osTick(CoreId c)
    {
        const SystemConfig &cfg = engine_.config();
        CoreComplex &cx = engine_.complex(c);
        const std::uint64_t retired = retiredTotal_[c];

        if (cfg.contextSwitchInterval &&
            retired >= nextContextSwitch_[c]) {
            nextContextSwitch_[c] += cfg.contextSwitchInterval;
            if (SeesawCache *cache = cx.seesawL1())
                cache->tft().flush();
        }
        // Core 0's retirement clock drives the global passes.
        if (c != 0)
            return;

        const Asid asid = engine_.asid();
        if (cfg.promotionInterval && retired >= nextPromotion_) {
            nextPromotion_ += cfg.promotionInterval;
            for (const auto &event : engine_.os().runPromotionPass(asid, 2))
                applyPromotion(event);
        }
        if (cfg.splinterInterval && retired >= nextSplinter_) {
            nextSplinter_ += cfg.splinterInterval;
            const auto supers = engine_.os().superpageVas(asid);
            if (!supers.empty()) {
                const Addr va =
                    supers[eventRng_.nextBounded(supers.size())];
                if (auto event = engine_.os().splinter(asid, va))
                    applySplinter(*event);
            }
        }
    }

    void
    applyPromotion(const PromotionEvent &event)
    {
        for (unsigned c = 0; c < engine_.cores(); ++c) {
            CoreComplex &cx = engine_.complex(c);
            for (unsigned i = 0; i < 512; ++i)
                cx.tlb().invalidatePage(event.asid,
                                        event.vaBase + i * 4096ULL);
            for (Addr old_pa : event.oldPaBases)
                cx.l1().sweepRegion(old_pa, 4096);
            cx.cpu().addStallCycles(engine_.config().shootdownCycles);
        }
        if (ExactDirectory *directory = engine_.directory()) {
            for (Addr old_pa : event.oldPaBases) {
                for (CoreId c = 0; c < engine_.cores(); ++c) {
                    for (Addr line = old_pa; line < old_pa + 4096;
                         line += 64)
                        directory->recordEviction(c, line);
                }
            }
        }
    }

    void
    applySplinter(const SplinterEvent &event)
    {
        for (unsigned c = 0; c < engine_.cores(); ++c) {
            CoreComplex &cx = engine_.complex(c);
            cx.tlb().invalidatePage(event.asid, event.vaBase);
            if (SeesawCache *cache = cx.seesawL1())
                cache->tft().invalidateRegion(event.vaBase);
            cx.cpu().addStallCycles(engine_.config().shootdownCycles);
        }
    }
};

/** @p config's RunResult from the reference loop. */
inline RunResult
soloReferenceRun(const SystemConfig &config, const WorkloadSpec &workload)
{
    return SoloReference(config, workload).run();
}

} // namespace seesaw

#endif // SEESAW_TESTS_SIM_SOLO_REFERENCE_HH

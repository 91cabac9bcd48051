/**
 * @file
 * The traced run: SimEngine::run() re-composed from the public phase
 * API (core_complex.hh: "doMemoryAccess/doInstructionFetches are
 * compositions of these phases"), with a timestamp after every call.
 * Each timestamp closes the span of the call before it, so a step
 * costs one clock read per call and the spans tile the run; the gap
 * between steps is the loop glue.
 *
 * The composition must stay in step with SimEngine::step/osTick/run:
 * the benchmark fails loudly when the traced RunResult differs from
 * the untraced one by a single byte.
 */

#include <algorithm>

#include "bench.hh"
#include "cache/sipt_cache.hh"
#include "common/bitops.hh"
#include "common/logging.hh"

namespace perfbench {

using namespace seesaw;

void
TraceStats::add(const TraceStats &o)
{
    for (unsigned s = 0; s < kSpanCount; ++s) {
        ns[s] += o.ns[s];
        calls[s] += o.calls[s];
    }
    wallS += o.wallS;
    warmupS += o.warmupS;
    measuredS += o.measuredS;
    refs += o.refs;
    instructions += o.instructions;
    tlbL1Hits += o.tlbL1Hits;
    tlbWalks += o.tlbWalks;
    tlbLookups += o.tlbLookups;
}

void
ReplayStats::add(const ReplayStats &o)
{
    l1Ns += o.l1Ns;
    l1Accesses += o.l1Accesses;
    l1WaysRead += o.l1WaysRead;
    outerNs += o.outerNs;
    outerAccesses += o.outerAccesses;
    fabricNs += o.fabricNs;
    fabricAccesses += o.fabricAccesses;
}

namespace {

/** Closes one span per call: the time since the previous lap. */
class Laps
{
  public:
    explicit Laps(TraceStats &stats) : stats_(stats) {}

    void
    lap(Span span)
    {
        const Clock::time_point now = Clock::now();
        stats_.ns[span] +=
            std::chrono::duration<double, std::nano>(now - last_)
                .count();
        ++stats_.calls[span];
        last_ = now;
    }

    Clock::time_point last() const { return last_; }

    /** Start the first span now. */
    void restart() { last_ = Clock::now(); }

  private:
    TraceStats &stats_;
    Clock::time_point last_ = Clock::now();
};

/** Mirror of SimEngine's private run loop and OS-event schedule. */
class TracedLoop
{
  public:
    TracedLoop(SimEngine &engine, const WorkloadSpec &workload,
           TraceStats &stats, std::size_t record_cap)
        : e_(engine), cfg_(engine.config()), workload_(workload),
          stats_(stats), laps_(stats),
          recordCap_(record_cap / std::max(1u, engine.cores())),
          eventRng_(cfg_.seed ^ 0xe7e27ULL),
          nextPromotion_(cfg_.promotionInterval),
          nextSplinter_(cfg_.splinterInterval)
    {
        stats_.l1Stream.assign(e_.cores(), {});
        for (auto &s : stats_.l1Stream)
            s.reserve(recordCap_);
    }

    RunResult
    run()
    {
        laps_.restart();
        const Clock::time_point t0 = laps_.last();
        Clock::time_point reset = t0;
        if (cfg_.warmupInstructions > 0) {
            runLoop(cfg_.warmupInstructions);
            laps_.lap(kGlue);
            reset = laps_.last();
            for (unsigned c = 0; c < e_.cores(); ++c)
                e_.complex(c).resetMeasurement();
            e_.energy().reset();
            if (e_.fabric())
                e_.fabric()->resetStats();
            laps_.lap(kMeasurementReset);
        }
        runLoop(cfg_.instructions);
        laps_.lap(kGlue);

        std::vector<CoreComplex *> cxs;
        Cycles max_cycles = 0;
        for (unsigned c = 0; c < e_.cores(); ++c) {
            cxs.push_back(&e_.complex(c));
            max_cycles = std::max(max_cycles, cxs.back()->cpu().cycles());
        }
        for (CoreComplex *cx : cxs) {
            e_.energy().addL1Leakage(cfg_.l1SizeBytes, max_cycles,
                                     cfg_.freqGhz);
            if (cx->l1i())
                e_.energy().addL1Leakage(32 * 1024, max_cycles,
                                         cfg_.freqGhz);
        }
        e_.energy().addBackground(max_cycles, cfg_.freqGhz);
        RunResult r = collectRunResults(cfg_, workload_, cxs, e_.energy(),
                                        e_.fabric(), e_.os(), e_.asid(),
                                        max_cycles);
        laps_.lap(kMeasurementReset);

        const Clock::time_point end = laps_.last();
        stats_.wallS = std::chrono::duration<double>(end - t0).count();
        stats_.warmupS = std::chrono::duration<double>(reset - t0).count();
        stats_.measuredS =
            std::chrono::duration<double>(end - reset).count();
        return r;
    }

  private:
    SimEngine &e_;
    const SystemConfig &cfg_;
    const WorkloadSpec &workload_;
    TraceStats &stats_;
    Laps laps_;
    std::size_t recordCap_;
    Rng eventRng_;
    std::uint64_t nextPromotion_;
    std::uint64_t nextSplinter_;

    void
    runLoop(std::uint64_t per_core_budget)
    {
        std::vector<std::uint64_t> retired(e_.cores(), 0);
        bool progress = true;
        while (progress) {
            progress = false;
            for (CoreId c = 0; c < e_.cores(); ++c) {
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
        CoreComplex &cx = e_.complex(c);
        const Asid asid = e_.asid();
        laps_.lap(kGlue);

        MemRef ref = cx.nextRef();
        laps_.lap(kNextRef);
        if (ref.gap + 1ULL > room)
            ref.gap = static_cast<std::uint32_t>(room > 0 ? room - 1 : 0);
        cx.cpu().retireNonMemory(ref.gap);
        laps_.lap(kRetireNonMemory);

        const int tft_probe = cx.probeDataTft(ref.va);
        laps_.lap(kTftProbe);
        TlbLookupResult tr = cx.activeTlb().lookup(asid, ref.va);
        countLookup(tr);
        laps_.lap(kTlbLookup);
        cx.chargeTranslation(tr);
        laps_.lap(kChargeTranslation);
        if (tr.fault) {
            e_.os().mapAnonymous(asid, alignDown(ref.va, 2 * 1024 * 1024),
                                 2 * 1024 * 1024,
                                 workload_.thpEligibleFraction);
            laps_.lap(kOsEvent);
            tr = cx.activeTlb().lookup(asid, ref.va);
            SEESAW_ASSERT(!tr.fault, "fault persists after demand paging");
            countLookup(tr);
            laps_.lap(kTlbLookup);
        }

        // One store into a preallocated buffer: inside the
        // finish-access span, which is the largest by far.
        if (stats_.l1Stream[c].size() < recordCap_) {
            stats_.l1Stream[c].push_back(
                L1Access{ref.va, tr.translation.translate(ref.va),
                         tr.translation.size, ref.type, tft_probe});
        }
        cx.finishMemoryAccess(ref, tr, tft_probe, e_.fabric());
        laps_.lap(kFinishAccess);

        const std::uint64_t retired = ref.gap + 1ULL;
        cx.doInstructionFetches(retired);
        laps_.lap(kFetch);
        cx.retiredTotal_ += retired;
        if (ProbeEngine *probes = cx.probeEngine()) {
            probes->tick(retired);
            laps_.lap(kProbeTick);
        }
        osTick(c);

        ++stats_.refs;
        stats_.instructions += retired;
        return retired;
    }

    void
    countLookup(const TlbLookupResult &tr)
    {
        ++stats_.tlbLookups;
        stats_.tlbL1Hits += tr.l1Hit;
        stats_.tlbWalks += tr.walked;
    }

    void
    osTick(CoreId c)
    {
        CoreComplex &cx = e_.complex(c);
        const std::uint64_t retired = cx.retiredTotal_;

        if (cfg_.contextSwitchInterval &&
            retired >= cx.nextContextSwitch_) {
            cx.nextContextSwitch_ += cfg_.contextSwitchInterval;
            if (SeesawCache *cache = cx.seesawL1())
                cache->tft().flush();
            laps_.lap(kOsEvent);
        }
        if (c != 0)
            return;

        const Asid asid = e_.asid();
        if (cfg_.promotionInterval && retired >= nextPromotion_) {
            nextPromotion_ += cfg_.promotionInterval;
            for (const auto &event : e_.os().runPromotionPass(asid, 2))
                applyPromotion(event);
            laps_.lap(kOsEvent);
        }
        if (cfg_.splinterInterval && retired >= nextSplinter_) {
            nextSplinter_ += cfg_.splinterInterval;
            const auto supers = e_.os().superpageVas(asid);
            if (!supers.empty()) {
                const Addr va =
                    supers[eventRng_.nextBounded(supers.size())];
                if (auto event = e_.os().splinter(asid, va))
                    applySplinter(*event);
            }
            laps_.lap(kOsEvent);
        }
    }

    void
    applyPromotion(const PromotionEvent &event)
    {
        for (unsigned c = 0; c < e_.cores(); ++c) {
            CoreComplex &cx = e_.complex(c);
            for (unsigned i = 0; i < 512; ++i)
                cx.tlb().invalidatePage(event.asid,
                                        event.vaBase + i * 4096ULL);
            for (Addr old_pa : event.oldPaBases)
                cx.l1().sweepRegion(old_pa, 4096);
            cx.cpu().addStallCycles(cfg_.shootdownCycles);
        }
        if (ExactDirectory *directory = e_.directory()) {
            for (Addr old_pa : event.oldPaBases) {
                for (CoreId c = 0; c < e_.cores(); ++c) {
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
        for (unsigned c = 0; c < e_.cores(); ++c) {
            CoreComplex &cx = e_.complex(c);
            cx.tlb().invalidatePage(event.asid, event.vaBase);
            if (SeesawCache *cache = cx.seesawL1())
                cache->tft().invalidateRegion(event.vaBase);
            cx.cpu().addStallCycles(cfg_.shootdownCycles);
        }
    }
};

/** A fresh L1D of @p config's design for @p core, built as
 *  CoreComplex builds it. */
std::unique_ptr<L1Cache>
makeL1(const SystemConfig &config, const LatencyTable &latency,
       unsigned core)
{
    const ReplacementParams replacement = withSeedSalt(
        config.replacement,
        SimEngine::coreSeed(config.seed, core) ^ 0x5e1ecULL);
    switch (config.l1Kind) {
      case L1Kind::ViptBaseline:
      case L1Kind::ViptWayPredicted:
      case L1Kind::Pipt: {
        BaselineL1Config c;
        c.sizeBytes = config.l1SizeBytes;
        c.assoc = config.l1Assoc;
        c.freqGhz = config.freqGhz;
        c.wayPrediction = config.l1Kind == L1Kind::ViptWayPredicted;
        c.replacement = replacement;
        if (config.l1Kind == L1Kind::Pipt)
            return std::make_unique<PiptCache>(c, latency,
                                               config.piptTlbCycles);
        return std::make_unique<ViptCache>(c, latency);
      }
      case L1Kind::Sipt: {
        SiptConfig c;
        c.sizeBytes = config.l1SizeBytes;
        c.assoc = config.siptAssoc;
        c.freqGhz = config.freqGhz;
        c.replacement = replacement;
        return std::make_unique<SiptCache>(c, latency);
      }
      case L1Kind::Seesaw:
      case L1Kind::SeesawWayPredicted: {
        SeesawConfig c;
        c.sizeBytes = config.l1SizeBytes;
        c.assoc = config.l1Assoc;
        c.partitionWays = config.partitionWays;
        c.freqGhz = config.freqGhz;
        c.policy = config.policy;
        c.tftEntries = config.tftEntries;
        c.tftAssoc = config.tftAssoc;
        c.wayPrediction = config.l1Kind == L1Kind::SeesawWayPredicted;
        c.replacement = replacement;
        return std::make_unique<SeesawCache>(c, latency);
      }
    }
    SEESAW_FATAL("unhandled L1 kind");
}

/** An outer-hierarchy operation the L1 replay produced. */
struct OuterOp
{
    Addr pa = 0;
    AccessType type = AccessType::Read;
    bool writeback = false;
};

/** Time @p stream through @p l1 (the SEESAW class directly, as the
 *  simulator calls it), collecting misses and dirty evictions. */
template <typename Cache>
void
replayL1(Cache &l1, const std::vector<L1Access> &stream,
         std::vector<OuterOp> &outer_ops, ReplayStats &out)
{
    const unsigned line_bytes = l1.tags().lineBytes();
    const Clock::time_point t0 = Clock::now();
    for (const L1Access &req : stream) {
        const L1AccessResult res = l1.access(req);
        out.l1WaysRead += res.waysRead;
        if (!res.hit) {
            outer_ops.push_back({req.pa, req.type, false});
            if (res.eviction.valid && res.eviction.dirty())
                outer_ops.push_back(
                    {res.eviction.lineAddr * line_bytes,
                     AccessType::Write, true});
        }
    }
    out.l1Ns += secondsSince(t0) * 1e9;
    out.l1Accesses += stream.size();
}

/** The recorded streams, round-robin across cores as the engine
 *  steps them, through fresh per-core caches under a fresh fabric of
 *  @p config's kind; only the fabric calls are timed. */
void
replayFabric(const SystemConfig &config, const LatencyTable &latency,
             const TraceStats &stats, ReplayStats &out)
{
    const unsigned cores = static_cast<unsigned>(stats.l1Stream.size());
    EnergyModel energy(latency.sram());
    SetAssocCache shared_llc(config.outer.llcSizeBytes,
                             config.outer.llcAssoc);
    std::vector<std::unique_ptr<L1Cache>> l1s;
    std::vector<std::unique_ptr<OuterHierarchy>> outers;
    for (unsigned c = 0; c < cores; ++c) {
        l1s.push_back(makeL1(config, latency, c));
        outers.push_back(std::make_unique<OuterHierarchy>(
            config.outer, config.freqGhz, &shared_llc));
    }
    std::unique_ptr<CoherenceFabric> fabric;
    const unsigned probe_cycles = outers[0]->llcCycles();
    switch (config.fabric) {
      case CoherenceKind::Directory:
        fabric = std::make_unique<DirectoryFabric>(cores, probe_cycles,
                                                   energy);
        break;
      case CoherenceKind::Snoopy:
        fabric =
            std::make_unique<SnoopFabric>(cores, probe_cycles, energy);
        break;
      case CoherenceKind::None:
        fabric = std::make_unique<NullFabric>();
        break;
    }
    for (unsigned c = 0; c < cores; ++c)
        fabric->attachCore(l1s[c].get(), &outers[c]->l2());

    std::size_t longest = 0;
    for (const auto &stream : stats.l1Stream)
        longest = std::max(longest, stream.size());
    for (std::size_t i = 0; i < longest; ++i) {
        for (CoreId c = 0; c < cores; ++c) {
            if (i >= stats.l1Stream[c].size())
                continue;
            const L1Access &req = stats.l1Stream[c][i];
            const Clock::time_point t0 = Clock::now();
            const FabricPreAccess pre =
                fabric->preAccess(c, req.pa, req.type);
            const Clock::time_point t1 = Clock::now();
            const L1AccessResult res = l1s[c]->access(req);
            if (!res.hit && !pre.ownerSupplied)
                outers[c]->access(req.pa, req.type);
            const Clock::time_point t2 = Clock::now();
            fabric->postAccess(c, req.pa, req.type, res, pre);
            const Clock::time_point t3 = Clock::now();
            out.fabricNs +=
                std::chrono::duration<double, std::nano>(t1 - t0 + t3 - t2)
                    .count();
            ++out.fabricAccesses;
        }
    }
}

} // namespace

RunResult
tracedRun(SimEngine &engine, const WorkloadSpec &workload,
          TraceStats &stats, std::size_t record_cap)
{
    SEESAW_ASSERT(engine.auditor() == nullptr,
                  "the traced run mirrors an audit-free run loop");
    TracedLoop loop(engine, workload, stats, record_cap);
    return loop.run();
}

double
lapCostNs()
{
    constexpr unsigned kLaps = 200'000;
    TraceStats stats;
    Laps laps(stats);
    laps.restart();
    for (unsigned i = 0; i < kLaps; ++i)
        laps.lap(kGlue);
    return stats.ns[kGlue] / kLaps;
}

ReplayStats
replayCaches(const SystemConfig &config, const TraceStats &stats)
{
    ReplayStats out;
    const LatencyTable latency(TechNode::Intel22);
    std::unique_ptr<SetAssocCache> shared_llc;
    if (config.cores > 1) {
        shared_llc = std::make_unique<SetAssocCache>(
            config.outer.llcSizeBytes, config.outer.llcAssoc);
    }
    std::vector<OuterOp> ops;
    for (unsigned c = 0; c < stats.l1Stream.size(); ++c) {
        const std::vector<L1Access> &stream = stats.l1Stream[c];
        ops.clear();
        ops.reserve(stream.size());
        std::unique_ptr<L1Cache> l1 = makeL1(config, latency, c);
        if (auto *seesaw = dynamic_cast<SeesawCache *>(l1.get()))
            replayL1(*seesaw, stream, ops, out);
        else
            replayL1(*l1, stream, ops, out);

        OuterHierarchy outer(config.outer, config.freqGhz,
                             shared_llc.get());
        const Clock::time_point t0 = Clock::now();
        for (const OuterOp &op : ops) {
            if (op.writeback)
                outer.writeback(op.pa);
            else
                outer.access(op.pa, op.type);
        }
        out.outerNs += secondsSince(t0) * 1e9;
        out.outerAccesses += ops.size();
    }
    if (config.cores > 1)
        replayFabric(config, latency, stats, out);
    return out;
}

} // namespace perfbench

#include "sim/multi_config_engine.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <sstream>
#include <thread>

#include "check/invariant_auditor.hh"
#include "common/bitops.hh"
#include "common/jobs.hh"
#include "common/logging.hh"
#include "common/thread_annotations.hh"
#include "sim/sim_engine.hh"

namespace seesaw {

namespace {

/** Steps per batch when a pass has several substrates (about 0.8MB
 *  of records with one TLB group). A batch replays substrate after
 *  substrate, so it must be long enough to amortize reloading each
 *  substrate's tag stores into the host caches, and a crew's
 *  hand-offs. Replay throughput on the fig12 sweep is flat from 2K to
 *  8K steps. */
constexpr std::size_t kBatchSteps = 8192;

/** Steps per batch of a one-substrate pass. There is nothing to
 *  switch between, only recording and replaying; about 100KB of
 *  records stays cache-resident and adds no measurable peak memory to
 *  a solo run. */
constexpr std::size_t kSoloBatchSteps = 1024;

/** The TLB geometry a config implies (tlbParams below): substrates
 *  matching on this share one hierarchy per core. The replacement
 *  policy is part of the key — TLBs own policy side-state, so
 *  substrates differing in victim selection walk different fill
 *  sequences and must fork into separate groups. */
std::string
tlbGeometryKey(const SystemConfig &config)
{
    std::ostringstream os;
    os << (config.coreKind == CoreKind::InOrder ? "atom" : "snb") << '|'
       << config.unifiedL1Tlb << '|' << config.unifiedL1TlbEntries
       << '|' << static_cast<int>(config.replacement.kind) << '|'
       << config.replacement.rripBits << '|'
       << config.replacement.seed;
    return os.str();
}

/** One core's TLB hierarchy for @p config: the preset follows the core
 *  model (Table II), optionally with a unified fully-associative L1,
 *  which SEESAW supports equally. Replacement seeds decorrelate per
 *  structure and per core: the hierarchy salts each level on top of
 *  this per-core base. */
TlbHierarchyParams
tlbParams(const SystemConfig &config, std::uint64_t core_seed)
{
    TlbHierarchyParams params = config.coreKind == CoreKind::InOrder
                                    ? TlbHierarchyParams::atom()
                                    : TlbHierarchyParams::sandybridge();
    if (config.unifiedL1Tlb) {
        params.unifiedL1 = true;
        params.unifiedL1Entries = config.unifiedL1TlbEntries;
    }
    params.replacement =
        withSeedSalt(config.replacement, core_seed ^ 0x71bULL);
    return params;
}

} // namespace

std::string
MultiConfigEngine::frontEndKey(const SystemConfig &c)
{
    // Every field the shared front end reads: workload mapping, OS and
    // fragmentation state, streams, the OS-event schedule, and the
    // fabric kind (coherence is restricted to compatible fabrics).
    std::ostringstream os;
    os << c.cores << '|' << c.seed << '|' << c.instructions << '|'
       << c.warmupInstructions << '|' << c.contextSwitchInterval << '|'
       << c.promotionInterval << '|' << c.splinterInterval << '|'
       << c.useOneGbHeap << '|' << c.modelInstructionCache << '|'
       << c.codeThpEligibleFraction << '|' << c.memhogFraction << '|'
       << static_cast<int>(c.fabric) << '|' << c.tracePath << '|'
       << c.os.memBytes << '|' << c.os.thpEnabled << '|'
       << c.os.kernelReservedFraction << '|'
       << c.os.pollutedRegionFraction << '|'
       << c.os.compactionCandidates << '|'
       << c.os.compactionBudgetPages << '|'
       << c.os.compactionMaxAttempts << '|' << c.os.seed << '|'
       << c.memhog.churn << '|' << c.memhog.pinnedProbability << '|'
       << c.memhog.meanFreeRunLength << '|' << c.memhog.seed;
    return os.str();
}

bool
MultiConfigEngine::compatibleFrontEnds(const SystemConfig &a,
                                       const SystemConfig &b)
{
    return frontEndKey(a) == frontEndKey(b);
}

MultiConfigEngine::MultiConfigEngine(std::vector<SystemConfig> configs,
                                     const WorkloadSpec &workload,
                                     unsigned replay_threads)
    : workload_(workload), latency_(TechNode::Intel22),
      configs_(std::move(configs)),
      eventRng_((configs_.empty() ? 0 : configs_.front().seed) ^
                0xe7e27ULL)
{
    SEESAW_ASSERT(!configs_.empty(),
                  "one-pass engine needs at least one config");
    const SystemConfig &front = configs_.front();
    SEESAW_ASSERT(front.cores >= 1 && front.cores <= 64,
                  "1-64 cores supported");
    for (const SystemConfig &c : configs_) {
        SEESAW_ASSERT(compatibleFrontEnds(front, c),
                      "incompatible front ends in one pass: ",
                      frontEndKey(front), " vs ", frontEndKey(c));
    }

    // --- Shared front end: OS and physical memory first (fragment,
    // then map the footprint).
    OsParams os_params = front.os;
    os_params.seed ^= front.seed;
    os_ = std::make_unique<OsMemoryManager>(os_params);
    memhog_ = std::make_unique<Memhog>(*os_, front.memhog);
    memhog_->consume(front.memhogFraction);

    asid_ = os_->createProcess();
    heapBase_ = Addr{1} << 40; // 1GB-aligned heap base
    if (front.useOneGbHeap) {
        // §IV generalisation: back the heap with 1GB pages where the
        // allocator can find gigabyte contiguity, THP elsewhere.
        const Addr gb = Addr{1} << 30;
        Addr off = 0;
        while (off < workload_.footprintBytes &&
               os_->mapOneGbPage(asid_, heapBase_ + off)) {
            off += gb;
        }
        if (off < workload_.footprintBytes) {
            os_->mapAnonymous(asid_, heapBase_ + off,
                              workload_.footprintBytes - off,
                              workload_.thpEligibleFraction);
        }
    } else {
        os_->mapAnonymous(asid_, heapBase_, workload_.footprintBytes,
                          workload_.thpEligibleFraction);
    }
    // The text segment is shared by all cores; map it once before the
    // front ends build their fetch streams.
    if (front.modelInstructionCache) {
        textBase_ = Addr{2} << 40;
        os_->mapAnonymous(asid_, textBase_,
                          workload_.codeFootprintBytes,
                          front.codeThpEligibleFraction);
    }

    // --- Per-core front ends, built before any complex reads their
    // streams' hot ranges.
    cores_.reserve(front.cores);
    for (unsigned c = 0; c < front.cores; ++c) {
        cores_.emplace_back(front, workload_, heapBase_, textBase_,
                            static_cast<CoreId>(c),
                            SimEngine::coreSeed(front.seed, c));
    }

    // --- TLB groups: substrates implying one TLB geometry share one
    // hierarchy per core, built from the group's first config. A 2MB
    // fill marks the TFT of *every* member substrate, each routing I-
    // vs D-side by its own shape (bit-identical to each member's solo
    // hook). During run() the mark is recorded into the step and
    // applied by each member's replay.
    std::vector<std::size_t> group_of(configs_.size());
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < configs_.size(); ++i) {
        const SystemConfig &config = configs_[i];
        const std::string key = tlbGeometryKey(config);
        auto it = std::find(keys.begin(), keys.end(), key);
        group_of[i] = static_cast<std::size_t>(it - keys.begin());
        if (it != keys.end())
            continue;
        keys.push_back(key);
        const std::size_t g = groups_.size();
        TlbGroup &group = groups_.emplace_back();
        for (unsigned c = 0; c < front.cores; ++c) {
            auto &tlb = group.tlbs.emplace_back(
                std::make_unique<TlbHierarchy>(
                    tlbParams(config, SimEngine::coreSeed(front.seed, c)),
                    os_->pageTable()));
            tlb->setOn2MBFill([this, g, c](Asid, Addr va_base) {
                onGroupFill(g, static_cast<CoreId>(c), va_base);
            });
        }
    }

    // --- Substrates, in config order.
    substrates_.reserve(configs_.size());
    for (std::size_t i = 0; i < configs_.size(); ++i) {
        Substrate &sub = substrates_.emplace_back();
        sub.config = &configs_[i];
        sub.tlbGroup = group_of[i];
        sub.energy = std::make_unique<EnergyModel>(latency_.sram());
        // Multi-core systems share one LLC behind the private L2s; a
        // single-core complex keeps its private LLC (original System).
        if (front.cores > 1) {
            sub.sharedLlc = std::make_unique<SetAssocCache>(
                sub.config->outer.llcSizeBytes,
                sub.config->outer.llcAssoc);
        }
        for (unsigned c = 0; c < front.cores; ++c) {
            sub.complexes.push_back(std::make_unique<CoreComplex>(
                *sub.config, workload_, latency_, *os_, *sub.energy,
                asid_, cores_[c], *groups_[sub.tlbGroup].tlbs[c],
                textBase_, static_cast<CoreId>(c),
                SimEngine::coreSeed(front.seed, c), sub.sharedLlc.get()));
        }
        if (front.cores > 1) {
            // Probe latency models directory/bus indirection plus the
            // remote round trip — the engine charges its LLC latency.
            const unsigned probe_cycles =
                sub.complexes[0]->outer().llcCycles();
            switch (sub.config->fabric) {
              case CoherenceKind::Directory:
                sub.fabric = std::make_unique<DirectoryFabric>(
                    front.cores, probe_cycles, *sub.energy);
                break;
              case CoherenceKind::Snoopy:
                sub.fabric = std::make_unique<SnoopFabric>(
                    front.cores, probe_cycles, *sub.energy);
                break;
              case CoherenceKind::None:
                sub.fabric = std::make_unique<NullFabric>();
                break;
            }
            sub.directory = sub.fabric->directory();
            for (auto &cx : sub.complexes)
                sub.fabric->attachCore(&cx->l1(), &cx->outer().l2());
        }
        setupAuditor(sub);
    }

    nextPromotion_ = front.promotionInterval;
    nextSplinter_ = front.splinterInterval;

    // --- Replay pipeline. Periodic/Paranoid audits read the shared OS
    // and TLB state mid-run, so such a pass replays every step before
    // the front end moves on, on the calling thread.
    bool lockstep = false;
    for (const Substrate &sub : substrates_) {
        if (sub.auditor &&
            (sub.config->audit.mode == check::AuditMode::Periodic ||
             sub.config->audit.mode == check::AuditMode::Paranoid))
            lockstep = true;
    }
    const auto count = static_cast<unsigned>(substrates_.size());
    replayThreads_ =
        lockstep ? 1
                 : std::clamp(replay_threads ? replay_threads
                                             : defaultJobs(),
                              1u, count);
    if (lockstep)
        batchSteps_ = 1;
    else
        batchSteps_ = count > 1 ? kBatchSteps : kSoloBatchSteps;
}

MultiConfigEngine::~MultiConfigEngine() = default;

void
MultiConfigEngine::setupAuditor(Substrate &sub)
{
    if (sub.config->audit.mode == check::AuditMode::Off)
        return;
    if (!check::kAuditCompiledIn) {
        SEESAW_WARN("audit mode '",
                    check::auditModeName(sub.config->audit.mode),
                    "' requested but the audit layer is compiled out; "
                    "rebuild with -DSEESAW_AUDIT=ON");
        return;
    }
    sub.auditor =
        std::make_unique<check::InvariantAuditor>(sub.config->audit);
    std::vector<CoreComplex *> cxs;
    cxs.reserve(sub.complexes.size());
    for (auto &cx : sub.complexes)
        cxs.push_back(cx.get());
    registerSystemAudits(*sub.auditor, *sub.config, std::move(cxs),
                         sub.sharedLlc.get(), sub.directory, *os_,
                         asid_);
}

void
MultiConfigEngine::StepBatch::clear()
{
    steps.clear();
    lookups.clear();
    marks.clear();
    fetches.clear();
    events.clear();
    promotedPas.clear();
}

/**
 * The replay crew: the calling thread plus (threads - 1) workers.
 * Every participant takes substrates of the started batch from one
 * shared ticket until none remain, so each substrate replays a batch
 * on exactly one thread; start() follows the previous finish(), so
 * each substrate also replays its batches in order.
 */
class MultiConfigEngine::ReplayCrew
{
  public:
    ReplayCrew(MultiConfigEngine &engine, unsigned threads)
        : engine_(engine)
    {
        for (unsigned i = 1; i < threads; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    }

    ~ReplayCrew() SEESAW_EXCLUDES(mutex_)
    {
        {
            MutexLock lock(mutex_);
            stopping_ = true;
        }
        wake_.notify_all();
        for (auto &worker : workers_)
            worker.join();
    }

    ReplayCrew(const ReplayCrew &) = delete;
    ReplayCrew &operator=(const ReplayCrew &) = delete;

    /** Begin replaying @p batch; the previous batch must be finished. */
    void
    start(const StepBatch &batch) SEESAW_EXCLUDES(mutex_)
    {
        {
            MutexLock lock(mutex_);
            batch_ = &batch;
            nextTicket_.store(0);
            busy_ = static_cast<unsigned>(workers_.size());
            ++generation_;
        }
        wake_.notify_all();
    }

    /** Replay what is left of the started batch on this thread, then
     *  wait for the workers and rethrow the first exception one of
     *  them raised. No-op when nothing is started. */
    void
    finish() SEESAW_EXCLUDES(mutex_)
    {
        const StepBatch *batch = nullptr;
        {
            MutexLock lock(mutex_);
            batch = batch_;
        }
        if (!batch)
            return;
        drain(*batch);
        MutexLock lock(mutex_);
        while (busy_ != 0)
            lock.wait(idle_);
        batch_ = nullptr;
        if (error_) {
            const std::exception_ptr error = error_;
            error_ = nullptr;
            std::rethrow_exception(error);
        }
    }

  private:
    void
    drain(const StepBatch &batch)
    {
        for (;;) {
            const std::size_t s = nextTicket_.fetch_add(1);
            if (s >= engine_.substrates_.size())
                return;
            engine_.replay(engine_.substrates_[s], batch);
        }
    }

    void
    workerLoop() SEESAW_EXCLUDES(mutex_)
    {
        std::uint64_t seen = 0;
        for (;;) {
            const StepBatch *batch = nullptr;
            {
                MutexLock lock(mutex_);
                while (!stopping_ && generation_ == seen)
                    lock.wait(wake_);
                if (stopping_)
                    return;
                seen = generation_;
                batch = batch_;
            }
            std::exception_ptr error;
            try {
                drain(*batch);
            } catch (...) {
                error = std::current_exception();
            }
            MutexLock lock(mutex_);
            if (error && !error_)
                error_ = error;
            if (--busy_ == 0)
                idle_.notify_one();
        }
    }

    MultiConfigEngine &engine_;
    std::atomic<std::size_t> nextTicket_{0};
    AnnotatedMutex mutex_;
    std::condition_variable wake_; //!< workers: new batch or stop
    std::condition_variable idle_; //!< caller: every worker checked in
    /** The started, not yet finished batch (nullptr: none). */
    const StepBatch *batch_ SEESAW_GUARDED_BY(mutex_) = nullptr;
    std::uint64_t generation_ SEESAW_GUARDED_BY(mutex_) = 0;
    /** Workers not yet done with the current batch. */
    unsigned busy_ SEESAW_GUARDED_BY(mutex_) = 0;
    bool stopping_ SEESAW_GUARDED_BY(mutex_) = false;
    std::exception_ptr error_ SEESAW_GUARDED_BY(mutex_);
    std::vector<std::thread> workers_; //!< written only in ctor/dtor
};

void
MultiConfigEngine::onGroupFill(std::size_t group, CoreId c,
                               Addr va_base)
{
    if (recording_) {
        filling_->marks.push_back({group, va_base});
        return;
    }
    for (Substrate &sub : substrates_) {
        if (sub.tlbGroup == group)
            sub.complexes[c]->markTftRegion(va_base);
    }
}

void
MultiConfigEngine::applyPromotion(const PromotionEvent &event)
{
    // Shoot down the 512 stale base-page translations once per shared
    // TLB; every substrate then sweeps and stalls (§IV-C2).
    for (TlbGroup &group : groups_) {
        for (auto &tlb : group.tlbs) {
            for (unsigned i = 0; i < 512; ++i)
                tlb->invalidatePage(event.asid,
                                    event.vaBase + i * 4096ULL);
        }
    }
    StepBatch &batch = *filling_;
    EventRecord record;
    record.kind = EventRecord::Kind::Promotion;
    record.pasBegin = static_cast<std::uint32_t>(batch.promotedPas.size());
    batch.promotedPas.insert(batch.promotedPas.end(),
                             event.oldPaBases.begin(),
                             event.oldPaBases.end());
    record.pasEnd = static_cast<std::uint32_t>(batch.promotedPas.size());
    batch.events.push_back(record);
}

void
MultiConfigEngine::applySplinter(const SplinterEvent &event)
{
    for (TlbGroup &group : groups_) {
        for (auto &tlb : group.tlbs)
            tlb->invalidatePage(event.asid, event.vaBase);
    }
    EventRecord record;
    record.kind = EventRecord::Kind::Splinter;
    record.va = event.vaBase;
    filling_->events.push_back(record);
}

void
MultiConfigEngine::unmapBroadcast(Addr va_base, std::uint64_t bytes)
{
    os_->unmapRange(asid_, va_base, bytes);
    const Addr end = va_base + alignUp(bytes, 4096);
    for (TlbGroup &group : groups_) {
        for (auto &tlb : group.tlbs) {
            for (Addr va = alignDown(va_base, 4096); va < end;
                 va += 4096)
                tlb->invalidatePage(asid_, va);
        }
    }
    const Addr region_end = alignUp(end, 2 * 1024 * 1024);
    for (Substrate &sub : substrates_) {
        for (auto &cx : sub.complexes) {
            for (Addr va = alignDown(va_base, 2 * 1024 * 1024);
                 va < region_end; va += 2 * 1024 * 1024) {
                if (SeesawCache *cache = cx->seesawL1())
                    cache->tft().invalidateRegion(va);
                if (SeesawCache *cache = cx->seesawL1i())
                    cache->tft().invalidateRegion(va);
            }
            cx->cpu().addStallCycles(sub.config->shootdownCycles);
        }
    }
}

void
MultiConfigEngine::osTick(CoreId c)
{
    CoreFrontEnd &fe = cores_[c];
    const SystemConfig &front = configs_.front();
    const std::uint64_t retired = fe.retiredTotal;

    if (front.contextSwitchInterval &&
        retired >= fe.nextContextSwitch) {
        fe.nextContextSwitch += front.contextSwitchInterval;
        filling_->events.push_back({EventRecord::Kind::ContextSwitch});
    }

    if (c != 0)
        return;

    if (front.promotionInterval && retired >= nextPromotion_) {
        nextPromotion_ += front.promotionInterval;
        for (const auto &event : os_->runPromotionPass(asid_, 2))
            applyPromotion(event);
    }

    if (front.splinterInterval && retired >= nextSplinter_) {
        nextSplinter_ += front.splinterInterval;
        const auto supers = os_->superpageVas(asid_);
        if (!supers.empty()) {
            const Addr va =
                supers[eventRng_.nextBounded(supers.size())];
            if (auto event = os_->splinter(asid_, va))
                applySplinter(*event);
        }
    }
}

std::uint32_t
MultiConfigEngine::recordLookups(CoreId c, Addr va)
{
    std::vector<GroupLookup> &lookups = filling_->lookups;
    const auto first = static_cast<std::uint32_t>(lookups.size());
    for (TlbGroup &group : groups_)
        lookups.push_back({group.tlbs[c]->lookup(asid_, va)});
    return first;
}

std::uint64_t
MultiConfigEngine::recordStep(CoreId c, std::uint64_t room)
{
    CoreFrontEnd &fe = cores_[c];
    StepBatch &batch = *filling_;
    const std::size_t groups = groups_.size();

    StepRecord step;
    step.ref = fe.nextRef();
    if (step.ref.gap + 1ULL > room)
        step.ref.gap =
            static_cast<std::uint32_t>(room > 0 ? room - 1 : 0);
    step.core = c;

    // One lookup per TLB group — the shared work the pass exists for.
    // Translation is config-invariant, so every group agrees on
    // whether the access faults.
    step.lookup = recordLookups(c, step.ref.va);
    step.faulted = batch.lookups[step.lookup].tr.fault;
    for (std::size_t g = 0; g < groups; ++g) {
        SEESAW_ASSERT(batch.lookups[step.lookup + g].tr.fault ==
                          step.faulted,
                      "substrates disagree on a page fault");
    }
    std::uint32_t final_lookup = step.lookup;
    if (step.faulted) {
        // Demand-page once; each group retries its lookup (identical
        // to every member's solo fault path).
        os_->mapAnonymous(asid_, alignDown(step.ref.va, 2 * 1024 * 1024),
                          2 * 1024 * 1024,
                          workload_.thpEligibleFraction);
        final_lookup = recordLookups(c, step.ref.va);
        for (std::size_t g = 0; g < groups; ++g) {
            SEESAW_ASSERT(!batch.lookups[final_lookup + g].tr.fault,
                          "fault persists after demand paging");
        }
    }
    // The scheduler's superpage-occupancy counter, read where a solo
    // run's finishMemoryAccess reads it: after the final lookup,
    // before any fetch lookup.
    for (std::size_t g = 0; g < groups; ++g) {
        batch.lookups[final_lookup + g].superpagesAmple =
            groups_[g].tlbs[c]->superpagesAmple();
    }
    step.marksEnd = static_cast<std::uint32_t>(batch.marks.size());

    // Instruction fetches: the front end owns the fetch carry and the
    // fetch-line stream; substrates complete each line independently.
    std::uint64_t fetches = fe.takeFetchLines(step.ref.gap + 1ULL);
    while (fetches-- > 0) {
        FetchRecord fetch;
        fetch.va = fe.nextFetchLine();
        fetch.lookup = recordLookups(c, fetch.va);
        for (std::size_t g = 0; g < groups; ++g) {
            SEESAW_ASSERT(!batch.lookups[fetch.lookup + g].tr.fault,
                          "text segment must be premapped");
        }
        fetch.marksEnd = static_cast<std::uint32_t>(batch.marks.size());
        batch.fetches.push_back(fetch);
    }
    step.fetchesEnd = static_cast<std::uint32_t>(batch.fetches.size());

    fe.retiredTotal += step.ref.gap + 1;
    osTick(c);
    step.eventsEnd = static_cast<std::uint32_t>(batch.events.size());
    batch.steps.push_back(step);
    return step.ref.gap + 1;
}

void
MultiConfigEngine::replayEvent(Substrate &sub, const StepBatch &batch,
                               const EventRecord &event, CoreId c)
{
    const Cycles stall = sub.config->shootdownCycles;
    switch (event.kind) {
      case EventRecord::Kind::ContextSwitch:
        // The TFT carries no ASID tags; context switches flush it.
        if (SeesawCache *cache = sub.complexes[c]->seesawL1())
            cache->tft().flush();
        return;
      case EventRecord::Kind::Promotion:
        for (auto &cx : sub.complexes) {
            for (std::uint32_t i = event.pasBegin; i < event.pasEnd; ++i)
                cx->l1().sweepRegion(batch.promotedPas[i], 4096);
            cx->cpu().addStallCycles(stall);
        }
        if (sub.directory) {
            for (std::uint32_t i = event.pasBegin; i < event.pasEnd;
                 ++i) {
                const Addr old_pa = batch.promotedPas[i];
                for (CoreId core = 0; core < sub.complexes.size();
                     ++core) {
                    for (Addr line = old_pa; line < old_pa + 4096;
                         line += 64)
                        sub.directory->recordEviction(core, line);
                }
            }
        }
        return;
      case EventRecord::Kind::Splinter:
        for (auto &cx : sub.complexes) {
            if (SeesawCache *cache = cx->seesawL1())
                cache->tft().invalidateRegion(event.va);
            cx->cpu().addStallCycles(stall);
        }
        return;
    }
}

void
MultiConfigEngine::replay(Substrate &sub, const StepBatch &batch)
{
    // A solo run's per-access order: retire, pre-TLB TFT probe, the
    // lookups' 2MB marks, translation charge, the access, the fetches
    // (probe, marks, charge, line each), probe tick, OS events, audits.
    const std::size_t group = sub.tlbGroup;
    const std::size_t groups = groups_.size();
    std::size_t mark = 0;
    std::size_t fetch = 0;
    std::size_t event = 0;
    const auto mark_until = [&](CoreComplex &cx, std::uint32_t end) {
        for (; mark < end; ++mark) {
            if (batch.marks[mark].group == group)
                cx.markTftRegion(batch.marks[mark].vaBase);
        }
    };
    for (const StepRecord &step : batch.steps) {
        CoreComplex &cx = *sub.complexes[step.core];
        const std::uint64_t retired = step.ref.gap + 1ULL;
        cx.cpu().retireNonMemory(step.ref.gap);
        const int probe = cx.probeDataTft(step.ref.va);
        mark_until(cx, step.marksEnd);

        const GroupLookup &first = batch.lookups[step.lookup + group];
        cx.chargeTranslation(first.tr);
        const GroupLookup &last =
            step.faulted ? batch.lookups[step.lookup + groups + group]
                         : first;
        const bool transition =
            cx.finishMemoryAccess(step.ref, last.tr, probe,
                                  sub.fabric.get(), last.superpagesAmple);

        for (; fetch < step.fetchesEnd; ++fetch) {
            const FetchRecord &line = batch.fetches[fetch];
            const int code_probe = cx.probeCodeTft(line.va);
            mark_until(cx, line.marksEnd);
            const TlbLookupResult &tr =
                batch.lookups[line.lookup + group].tr;
            cx.chargeTranslation(tr);
            cx.finishFetch(line.va, tr, code_probe);
        }

        if (ProbeEngine *probes = cx.probeEngine())
            probes->tick(retired);
        for (; event < step.eventsEnd; ++event)
            replayEvent(sub, batch, batch.events[event], step.core);
        if constexpr (check::kAuditCompiledIn) {
            if (sub.auditor) {
                const Cycles now = cx.cpu().cycles();
                if (sub.fabric && transition)
                    sub.auditor->onCoherenceTransition(now);
                sub.auditor->onEvent(retired, now);
            }
        }
    }
}

void
MultiConfigEngine::dispatch(ReplayCrew *crew)
{
    if (filling_->steps.empty())
        return;
    if (!crew) {
        for (Substrate &sub : substrates_)
            replay(sub, *filling_);
        filling_->clear();
        return;
    }
    crew->finish();
    crew->start(*filling_);
    filling_ = filling_ == &batches_[0] ? &batches_[1] : &batches_[0];
    filling_->clear();
}

void
MultiConfigEngine::runLoop(std::uint64_t per_core_budget,
                           ReplayCrew *crew)
{
    std::vector<std::uint64_t> retired(cores_.size(), 0);
    bool progress = true;
    while (progress) {
        progress = false;
        for (CoreId c = 0; c < cores_.size(); ++c) {
            if (retired[c] < per_core_budget) {
                retired[c] += recordStep(c, per_core_budget - retired[c]);
                progress = true;
                if (filling_->steps.size() >= batchSteps_)
                    dispatch(crew);
            }
        }
    }
    dispatch(crew);
    if (crew)
        crew->finish();
}

void
MultiConfigEngine::resetMeasurement()
{
    for (Substrate &sub : substrates_) {
        for (auto &cx : sub.complexes)
            cx->resetMeasurement();
        sub.energy->reset();
        if (sub.fabric)
            sub.fabric->resetStats();
    }
}

std::vector<RunResult>
MultiConfigEngine::run()
{
    const SystemConfig &front = configs_.front();
    // The batches live only while the pass runs: allocated after all
    // setup and released before results are collected. Inline replay
    // refills the first batch only.
    const std::size_t buffers = replayThreads_ > 1 ? 2 : 1;
    for (std::size_t b = 0; b < buffers; ++b) {
        batches_[b].steps.reserve(batchSteps_);
        batches_[b].lookups.reserve(batchSteps_ * groups_.size());
    }
    {
        std::unique_ptr<ReplayCrew> crew;
        if (replayThreads_ > 1)
            crew = std::make_unique<ReplayCrew>(*this, replayThreads_);
        recording_ = true;
        if (front.warmupInstructions > 0) {
            runLoop(front.warmupInstructions, crew.get());
            resetMeasurement();
        }
        runLoop(front.instructions, crew.get());
        recording_ = false;
    }
    batches_ = {};
    filling_ = &batches_[0];

    std::vector<RunResult> results;
    results.reserve(substrates_.size());
    for (Substrate &sub : substrates_) {
        Cycles max_cycles = 0;
        for (auto &cx : sub.complexes)
            max_cycles = std::max(max_cycles, cx->cpu().cycles());

        if constexpr (check::kAuditCompiledIn) {
            if (sub.auditor)
                sub.auditor->onEndOfRun(max_cycles);
        }

        for (auto &cx : sub.complexes) {
            sub.energy->addL1Leakage(sub.config->l1SizeBytes,
                                     max_cycles, sub.config->freqGhz);
            if (cx->l1i())
                sub.energy->addL1Leakage(32 * 1024, max_cycles,
                                         sub.config->freqGhz);
        }
        sub.energy->addBackground(max_cycles, sub.config->freqGhz);

        std::vector<CoreComplex *> cxs;
        cxs.reserve(sub.complexes.size());
        for (auto &cx : sub.complexes)
            cxs.push_back(cx.get());
        results.push_back(collectRunResults(
            *sub.config, workload_, cxs, *sub.energy,
            sub.fabric.get(), *os_, asid_, max_cycles));
    }
    return results;
}

} // namespace seesaw

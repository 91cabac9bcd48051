#include "sim/multi_config_engine.hh"

#include <algorithm>
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

/** Steps per batch when a pass has several substrates (about 450KB
 *  of records with one TLB group). A batch replays substrate after
 *  substrate, so it must be long enough to amortize reloading each
 *  substrate's tag stores into the host caches. Replay throughput on
 *  the fig12 sweep is flat from 2K to 8K steps; four 8K-step ring
 *  slots fragmented the heap between passes (perfbench
 *  frag_sweep_gups peak RSS 93 -> 103MB in some runs). */
constexpr std::size_t kBatchSteps = 4096;

/** Steps per batch of a one-substrate pass. There is nothing to
 *  switch between, only recording and replaying; about 100KB of
 *  records per batch stays cache-resident. */
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
    // The budget counts the recording thread: at most one replay
    // thread per substrate beside it. A lone multi-core substrate
    // replays inline: its replay (private L1s and L2s, the fabric, the
    // shared LLC) outweighs recording, so the ring stays full and the
    // pass runs at the replay thread's pace, which on a second CPU was
    // 1.2-2x slower per batch than inline replay and varied from run
    // to run (perfbench share_cann_4c).
    const bool replay_bound = substrates_.size() == 1 && front.cores > 1;
    const auto most =
        replay_bound ? 1u : static_cast<unsigned>(substrates_.size()) + 1;
    replayThreads_ =
        lockstep ? 1
                 : std::clamp(replay_threads ? replay_threads
                                             : defaultJobs(),
                              1u, most);
    if (lockstep)
        batchSteps_ = 1;
    else
        batchSteps_ = substrates_.size() > 1 ? kBatchSteps : kSoloBatchSteps;
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
 * The replay ring: a bounded ring of published batches between the
 * front end (the calling thread) and (threads - 1) replay threads.
 * Each substrate replays the ring's batches in order, on one thread at
 * a time: a thread claims a substrate, replays its next batch, and
 * keeps the claim while that substrate has published batches left. A
 * slot is free again once every substrate has replayed it. Threads
 * park only when the ring is empty (replay threads) or full (the
 * front end, which first helps replay the most lagging substrate), so
 * a batch is handed over without a wake when both sides keep up.
 */
class MultiConfigEngine::ReplayRing
{
  public:
    ReplayRing(MultiConfigEngine &engine, unsigned threads)
        : engine_(engine), done_(engine.substrates_.size(), 0),
          claimed_(engine.substrates_.size(), 0)
    {
        for (unsigned i = 1; i < threads; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    }

    ~ReplayRing() SEESAW_EXCLUDES(mutex_)
    {
        {
            MutexLock lock(mutex_);
            stopping_ = true;
        }
        work_.notify_all();
        for (auto &worker : workers_)
            worker.join();
    }

    ReplayRing(const ReplayRing &) = delete;
    ReplayRing &operator=(const ReplayRing &) = delete;

    /** Publish the filled slot. @return the slot to fill next, once
     *  it is free. When the ring is full the front end waits until it
     *  is half empty (replaying meanwhile), so a front end that runs
     *  ahead is woken once per half ring, not once per batch. */
    StepBatch &
    publish() SEESAW_EXCLUDES(mutex_)
    {
        std::uint64_t next = 0;
        {
            MutexLock lock(mutex_);
            next = ++published_;
            work_.notify_all();
            if (next - retired_ < kRingSlots)
                return slot(next);
        }
        waitRetired(next - kRingSlots / 2);
        return slot(next);
    }

    /** Wait until every substrate replayed every published batch, then
     *  rethrow the first exception a replay thread raised. */
    void
    drain() SEESAW_EXCLUDES(mutex_)
    {
        std::uint64_t target = 0;
        {
            MutexLock lock(mutex_);
            target = published_;
        }
        waitRetired(target);
    }

  private:
    static constexpr std::size_t kNone = ~std::size_t{0};

    StepBatch &
    slot(std::uint64_t batch)
    {
        return engine_.ring_[batch % kRingSlots];
    }

    /** A substrate with a published batch left and no thread on it:
     *  @p prefer when it qualifies, otherwise the most lagging. */
    std::size_t
    pickLocked(std::size_t prefer) const SEESAW_REQUIRES(mutex_)
    {
        if (prefer != kNone && !claimed_[prefer] &&
            done_[prefer] < published_)
            return prefer;
        std::size_t best = kNone;
        for (std::size_t s = 0; s < done_.size(); ++s) {
            if (!claimed_[s] && done_[s] < published_ &&
                (best == kNone || done_[s] < done_[best]))
                best = s;
        }
        return best;
    }

    /** Claim @p s and return the batch it replays next. */
    std::uint64_t
    claimLocked(std::size_t s) SEESAW_REQUIRES(mutex_)
    {
        claimed_[s] = 1;
        return done_[s];
    }

    /** @p s finished a batch: release it and advance the retired
     *  count, waking the front end once its target is reached. */
    void
    finishLocked(std::size_t s) SEESAW_REQUIRES(mutex_)
    {
        ++done_[s];
        claimed_[s] = 0;
        retired_ = *std::min_element(done_.begin(), done_.end());
        if (frontEndWaiting_ && retired_ >= frontEndTarget_)
            space_.notify_one();
    }

    void
    rethrowLocked() SEESAW_REQUIRES(mutex_)
    {
        if (error_)
            std::rethrow_exception(error_);
    }

    /** The front end waits until @p target batches are retired. While
     *  it waits it replays single batches of substrates no thread
     *  holds, so a pass of more substrates than replay threads keeps
     *  every thread busy; it parks only when there are none. */
    void
    waitRetired(std::uint64_t target) SEESAW_EXCLUDES(mutex_)
    {
        for (;;) {
            std::size_t s = kNone;
            std::uint64_t batch = 0;
            {
                MutexLock lock(mutex_);
                for (;;) {
                    rethrowLocked();
                    if (retired_ >= target)
                        return;
                    s = pickLocked(kNone);
                    if (s != kNone)
                        break;
                    frontEndWaiting_ = true;
                    frontEndTarget_ = target;
                    lock.wait(space_);
                    frontEndWaiting_ = false;
                }
                batch = claimLocked(s);
            }
            engine_.replay(engine_.substrates_[s], slot(batch));
            MutexLock lock(mutex_);
            finishLocked(s);
        }
    }

    void
    workerLoop() SEESAW_EXCLUDES(mutex_)
    {
        std::size_t last = kNone;
        for (;;) {
            std::size_t s = kNone;
            std::uint64_t batch = 0;
            {
                MutexLock lock(mutex_);
                if (last != kNone)
                    finishLocked(last);
                for (;;) {
                    if (stopping_)
                        return;
                    s = pickLocked(last);
                    if (s != kNone)
                        break;
                    lock.wait(work_);
                }
                batch = claimLocked(s);
            }
            try {
                engine_.replay(engine_.substrates_[s], slot(batch));
            } catch (...) {
                MutexLock lock(mutex_);
                if (!error_)
                    error_ = std::current_exception();
                stopping_ = true;
                work_.notify_all();
                space_.notify_one();
                return;
            }
            last = s;
        }
    }

    MultiConfigEngine &engine_;
    AnnotatedMutex mutex_;
    std::condition_variable work_;  //!< replay threads: a new batch
    std::condition_variable space_; //!< front end: its target retired
    /** Batches published so far (batch b lives in slot b % kRingSlots). */
    std::uint64_t published_ SEESAW_GUARDED_BY(mutex_) = 0;
    /** Per substrate: batches replayed. */
    std::vector<std::uint64_t> done_ SEESAW_GUARDED_BY(mutex_);
    /** Per substrate: a thread is replaying it. */
    std::vector<char> claimed_ SEESAW_GUARDED_BY(mutex_);
    /** Batches every substrate replayed (the minimum of done_). */
    std::uint64_t retired_ SEESAW_GUARDED_BY(mutex_) = 0;
    bool frontEndWaiting_ SEESAW_GUARDED_BY(mutex_) = false;
    std::uint64_t frontEndTarget_ SEESAW_GUARDED_BY(mutex_) = 0;
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
MultiConfigEngine::dispatch(ReplayRing *ring)
{
    if (filling_->steps.empty())
        return;
    if (!ring) {
        for (Substrate &sub : substrates_)
            replay(sub, *filling_);
        filling_->clear();
        return;
    }
    filling_ = &ring->publish();
    filling_->clear();
}

void
MultiConfigEngine::runLoop(std::uint64_t per_core_budget,
                           ReplayRing *ring)
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
                    dispatch(ring);
            }
        }
    }
    dispatch(ring);
    if (ring)
        ring->drain();
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
    // refills the first slot only.
    const std::size_t slots = replayThreads_ > 1 ? kRingSlots : 1;
    for (std::size_t b = 0; b < slots; ++b) {
        ring_[b].steps.reserve(batchSteps_);
        ring_[b].lookups.reserve(batchSteps_ * groups_.size());
    }
    {
        std::unique_ptr<ReplayRing> ring;
        if (replayThreads_ > 1)
            ring = std::make_unique<ReplayRing>(*this, replayThreads_);
        recording_ = true;
        if (front.warmupInstructions > 0) {
            runLoop(front.warmupInstructions, ring.get());
            resetMeasurement();
        }
        runLoop(front.instructions, ring.get());
        recording_ = false;
    }
    ring_ = {};
    filling_ = &ring_[0];

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

/**
 * @file
 * MultiConfigEngine one-pass tests:
 *  - an N-substrate pass is bit-identical to N solo runs of the
 *    test-local reference loop (solo_reference.hh) across all six L1
 *    designs, mixed geometries (multiple TLB groups), the L1I
 *    extension and multi-core coherence, and so is the one-substrate
 *    SimEngine facade;
 *  - OS events (promotion, splinter, unmap) broadcast to every
 *    substrate;
 *  - a desynced substrate trips its own src/check audit context while
 *    the healthy substrate stays clean;
 *  - results do not depend on the replay-thread count, trace-driven
 *    and one-substrate (pipelined) passes included, and the campaign
 *    runner hands a lone group its whole thread budget.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>

#include "check/invariant_auditor.hh"
#include "harness/runner.hh"
#include "sim/multi_config_engine.hh"
#include "solo_reference.hh"
#include "workload/trace.hh"

namespace seesaw {
namespace {

WorkloadSpec
testWorkload()
{
    WorkloadSpec w = findWorkload("redis");
    w.footprintBytes = 32ULL << 20;
    w.hotSetBytes = 2ULL << 20;
    return w;
}

SystemConfig
baseConfig(L1Kind kind)
{
    SystemConfig cfg;
    cfg.l1Kind = kind;
    cfg.instructions = 40'000;
    cfg.warmupInstructions = 20'000;
    cfg.os.memBytes = 1ULL << 30;
    cfg.seed = 1;
    return cfg;
}

/** Full-structure equality with a readable first-divergence report. */
void
expectSameResult(const RunResult &one_pass, const RunResult &serial,
                 const std::string &label)
{
    EXPECT_EQ(one_pass.instructions, serial.instructions) << label;
    EXPECT_EQ(one_pass.cycles, serial.cycles) << label;
    EXPECT_EQ(one_pass.l1Accesses, serial.l1Accesses) << label;
    EXPECT_EQ(one_pass.l1Hits, serial.l1Hits) << label;
    EXPECT_EQ(one_pass.l1Misses, serial.l1Misses) << label;
    EXPECT_EQ(one_pass.tftLookups, serial.tftLookups) << label;
    EXPECT_EQ(one_pass.tftHits, serial.tftHits) << label;
    EXPECT_EQ(one_pass.dramAccesses, serial.dramAccesses) << label;
    EXPECT_EQ(one_pass.squashes, serial.squashes) << label;
    EXPECT_EQ(one_pass.probes, serial.probes) << label;
    EXPECT_EQ(one_pass.promotions, serial.promotions) << label;
    EXPECT_EQ(one_pass.splinters, serial.splinters) << label;
    EXPECT_EQ(one_pass.energyTotalNj, serial.energyTotalNj) << label;
    EXPECT_EQ(one_pass.ipc, serial.ipc) << label;
    // ... and every remaining field, doubles included.
    EXPECT_TRUE(one_pass == serial) << label;
}

void
expectOnePassMatchesSerial(const std::vector<SystemConfig> &configs,
                           const WorkloadSpec &workload)
{
    MultiConfigEngine engine(configs, workload);
    const std::vector<RunResult> one_pass = engine.run();
    ASSERT_EQ(one_pass.size(), configs.size());

    for (std::size_t i = 0; i < configs.size(); ++i) {
        const RunResult serial = soloReferenceRun(configs[i], workload);
        expectSameResult(one_pass[i], serial,
                         "substrate " + std::to_string(i));
    }
}

TEST(MultiConfigEngine, BitIdenticalAcrossAllSixL1Designs)
{
    std::vector<SystemConfig> configs;
    for (L1Kind kind :
         {L1Kind::ViptBaseline, L1Kind::Pipt, L1Kind::Seesaw,
          L1Kind::ViptWayPredicted, L1Kind::SeesawWayPredicted,
          L1Kind::Sipt})
        configs.push_back(baseConfig(kind));
    expectOnePassMatchesSerial(configs, testWorkload());
}

TEST(MultiConfigEngine, MixedGeometriesFormMultipleTlbGroups)
{
    // Eight substrates spanning L1 sizes, partition widths, core kinds
    // and TLB shapes: the in-order and unified-TLB members each form
    // their own TLB group behind the shared front end.
    std::vector<SystemConfig> configs;

    SystemConfig a = baseConfig(L1Kind::Seesaw);
    a.l1SizeBytes = 64 * 1024;
    a.l1Assoc = 16;
    a.partitionWays = 8;
    configs.push_back(a);

    SystemConfig b = baseConfig(L1Kind::Seesaw);
    b.partitionWays = 2;
    b.policy = InsertionPolicy::FourWayEightWay;
    configs.push_back(b);

    SystemConfig c = baseConfig(L1Kind::ViptBaseline);
    c.coreKind = CoreKind::InOrder;
    configs.push_back(c);

    SystemConfig d = baseConfig(L1Kind::Seesaw);
    d.coreKind = CoreKind::InOrder;
    configs.push_back(d);

    SystemConfig e = baseConfig(L1Kind::Seesaw);
    e.unifiedL1Tlb = true;
    configs.push_back(e);

    SystemConfig f = baseConfig(L1Kind::Seesaw);
    f.schedulerCounterPolicy = false;
    configs.push_back(f);

    SystemConfig g = baseConfig(L1Kind::ViptBaseline);
    g.freqGhz = 2.80;
    configs.push_back(g);

    SystemConfig h = baseConfig(L1Kind::Pipt);
    h.piptTlbCycles = 3;
    configs.push_back(h);

    // Three hierarchies: Sandy Bridge split TLBs (a, b, f, g, h), Atom
    // (c, d) and the unified L1 TLB (e). Each complex looks up in its
    // group's.
    MultiConfigEngine engine(configs, testWorkload());
    std::set<const TlbHierarchy *> tlbs;
    for (unsigned s = 0; s < engine.substrates(); ++s) {
        tlbs.insert(&engine.tlb(s));
        EXPECT_EQ(&engine.complex(s).tlb(), &engine.tlb(s)) << s;
    }
    EXPECT_EQ(tlbs.size(), 3u);
    for (unsigned s : {1u, 5u, 6u, 7u})
        EXPECT_EQ(&engine.tlb(s), &engine.tlb(0)) << s;
    EXPECT_EQ(&engine.tlb(3), &engine.tlb(2));

    expectOnePassMatchesSerial(configs, testWorkload());
}

TEST(MultiConfigEngine, InstructionCachePathIsBitIdentical)
{
    WorkloadSpec w = testWorkload();
    w.codeFootprintBytes = 8ULL << 20;

    std::vector<SystemConfig> configs;
    for (L1Kind kind : {L1Kind::Seesaw, L1Kind::ViptBaseline}) {
        SystemConfig cfg = baseConfig(kind);
        cfg.modelInstructionCache = true;
        configs.push_back(cfg);
    }
    // A SEESAW L1D with a forced-VIPT L1I exercises the
    // keep-code-out-of-the-D-TFT routing.
    SystemConfig mixed = baseConfig(L1Kind::Seesaw);
    mixed.modelInstructionCache = true;
    mixed.icacheKind = SystemConfig::ICacheKind::Vipt;
    configs.push_back(mixed);

    expectOnePassMatchesSerial(configs, w);
}

TEST(MultiConfigEngine, MultiCoreCoherentFabricsStayIndependent)
{
    WorkloadSpec w = testWorkload();
    std::vector<SystemConfig> configs;
    for (L1Kind kind : {L1Kind::Seesaw, L1Kind::ViptBaseline}) {
        SystemConfig cfg = baseConfig(kind);
        cfg.cores = 2;
        cfg.fabric = CoherenceKind::Directory;
        configs.push_back(cfg);
    }
    expectOnePassMatchesSerial(configs, w);
}

TEST(MultiConfigEngine, PolicyAndPrefetchSubstratesStayBitIdentical)
{
    // Substrates differing only in replacement policy or prefetcher:
    // the TLB groups must fork on the replacement params (policies own
    // TLB victim side-state) while everything else stays shared, and
    // every member must match its solo run exactly.
    std::vector<SystemConfig> configs;
    for (ReplacementKind rk :
         {ReplacementKind::Lru, ReplacementKind::Fifo,
          ReplacementKind::Random, ReplacementKind::Srrip}) {
        SystemConfig cfg = baseConfig(L1Kind::Seesaw);
        cfg.replacement.kind = rk;
        configs.push_back(cfg);
    }
    for (PrefetchKind pk :
         {PrefetchKind::NextLine, PrefetchKind::Stride}) {
        SystemConfig cfg = baseConfig(L1Kind::Seesaw);
        cfg.prefetch.kind = pk;
        configs.push_back(cfg);
    }
    SystemConfig combo = baseConfig(L1Kind::ViptBaseline);
    combo.replacement.kind = ReplacementKind::Random;
    combo.prefetch.kind = PrefetchKind::NextLine;
    configs.push_back(combo);

    expectOnePassMatchesSerial(configs, testWorkload());
}

TEST(MultiConfigEngine, RandomAndPrefetchAtFourCoresStayBitIdentical)
{
    // Four cores under the directory fabric with Random victims and
    // next-line prefetch: the per-core seed derivation
    // (coreSeed ^ salt) and the prefetch fills' coherence transitions
    // must replicate exactly between grouped and solo execution.
    WorkloadSpec w = testWorkload();
    std::vector<SystemConfig> configs;
    for (ReplacementKind rk :
         {ReplacementKind::Lru, ReplacementKind::Random}) {
        SystemConfig cfg = baseConfig(L1Kind::Seesaw);
        cfg.cores = 4;
        cfg.fabric = CoherenceKind::Directory;
        cfg.replacement.kind = rk;
        cfg.prefetch.kind = PrefetchKind::NextLine;
        configs.push_back(cfg);
    }
    expectOnePassMatchesSerial(configs, w);
}

TEST(MultiConfigEngine, OsEventsBroadcastToEverySubstrate)
{
    // Aggressive OS-event schedule: several promotions and splinters
    // land inside the budget, and the pass must still match every solo
    // run exactly — proof the events reached each substrate at the
    // same instruction boundary.
    WorkloadSpec w = testWorkload();
    std::vector<SystemConfig> configs;
    for (L1Kind kind :
         {L1Kind::Seesaw, L1Kind::SeesawWayPredicted,
          L1Kind::ViptBaseline}) {
        SystemConfig cfg = baseConfig(kind);
        cfg.promotionInterval = 5'000;
        cfg.splinterInterval = 15'000;
        cfg.contextSwitchInterval = 20'000;
        configs.push_back(cfg);
    }

    MultiConfigEngine engine(configs, w);
    const std::vector<RunResult> one_pass = engine.run();
    ASSERT_EQ(one_pass.size(), configs.size());
    EXPECT_GT(one_pass[0].promotions, 0u);
    EXPECT_GT(one_pass[0].splinters, 0u);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const RunResult serial = soloReferenceRun(configs[i], w);
        expectSameResult(one_pass[i], serial,
                         "substrate " + std::to_string(i));
    }
}

TEST(MultiConfigEngine, SoloFacadeMatchesTheReferenceLoop)
{
    // SimEngine runs one substrate through the batched record/replay
    // loop; the reference re-composes the per-access phases directly.
    // Cover the OS-event schedule, the L1I, three-core snoopy
    // coherence and the lockstep path of Paranoid audits.
    WorkloadSpec w = testWorkload();
    w.codeFootprintBytes = 8ULL << 20;
    std::vector<SystemConfig> configs;

    SystemConfig events = baseConfig(L1Kind::Seesaw);
    events.promotionInterval = 5'000;
    events.splinterInterval = 15'000;
    events.contextSwitchInterval = 7'000;
    configs.push_back(events);

    SystemConfig icache = baseConfig(L1Kind::SeesawWayPredicted);
    icache.modelInstructionCache = true;
    configs.push_back(icache);

    SystemConfig snoopy = baseConfig(L1Kind::ViptBaseline);
    snoopy.cores = 3;
    snoopy.fabric = CoherenceKind::Snoopy;
    snoopy.promotionInterval = 10'000;
    configs.push_back(snoopy);

    SystemConfig paranoid = baseConfig(L1Kind::Seesaw);
    paranoid.instructions = 4'000;
    paranoid.warmupInstructions = 1'000;
    paranoid.promotionInterval = 1'000;
    paranoid.splinterInterval = 500;
    paranoid.audit.mode = check::AuditMode::Paranoid;
    configs.push_back(paranoid);

    for (std::size_t i = 0; i < configs.size(); ++i) {
        expectSameResult(SimEngine(configs[i], w).run(),
                         soloReferenceRun(configs[i], w),
                         "config " + std::to_string(i));
    }
}

TEST(MultiConfigEngine, UnmapBroadcastReachesEverySubstrate)
{
    WorkloadSpec w = testWorkload();
    std::vector<SystemConfig> configs;
    for (unsigned ways : {2u, 4u}) {
        SystemConfig cfg = baseConfig(L1Kind::Seesaw);
        cfg.partitionWays = ways;
        configs.push_back(cfg);
    }

    MultiConfigEngine engine(configs, w);
    engine.run();

    const Addr heap = Addr{1} << 40;
    const std::uint64_t bytes = 8ULL << 20;
    engine.unmapBroadcast(heap, bytes);

    for (unsigned s = 0; s < engine.substrates(); ++s) {
        // The unmapped VAs fault in the substrate's (shared) TLB view.
        const TlbLookupResult tr =
            engine.tlb(s).lookup(engine.asid(), heap);
        EXPECT_TRUE(tr.fault) << "substrate " << s;
        // And its TFT dropped every region under the unmap.
        SeesawCache *cache = engine.complex(s).seesawL1();
        ASSERT_NE(cache, nullptr);
        for (Addr va = heap; va < heap + bytes; va += 2 * 1024 * 1024)
            EXPECT_FALSE(cache->tft().lookup(va))
                << "substrate " << s << " va " << va;
    }
}

TEST(MultiConfigEngine, DesyncedSubstrateTripsItsOwnAudits)
{
    // thpEligibleFraction=0 keeps the heap base-paged, so marking any
    // heap region in one substrate's TFT fabricates a superpage that
    // the page table disavows — exactly the desync the per-substrate
    // audit contexts exist to catch.
    WorkloadSpec w = testWorkload();
    w.thpEligibleFraction = 0.0;

    std::vector<SystemConfig> configs;
    for (unsigned ways : {2u, 4u}) {
        SystemConfig cfg = baseConfig(L1Kind::Seesaw);
        cfg.promotionInterval = 0; // keep the heap base-paged
        cfg.audit.mode = check::AuditMode::End;
        configs.push_back(cfg);
        configs.back().partitionWays = ways;
    }

    MultiConfigEngine engine(configs, w);
    ASSERT_NE(engine.auditor(0), nullptr);
    ASSERT_NE(engine.auditor(1), nullptr);

    std::uint64_t violations[2] = {0, 0};
    for (unsigned s = 0; s < 2; ++s) {
        engine.auditor(s)->setViolationHandler(
            [&violations, s](const check::Violation &) {
                ++violations[s];
            });
    }

    engine.complex(1).seesawL1()->tft().markRegion(Addr{1} << 40);

    engine.auditor(0)->runAll(0);
    engine.auditor(1)->runAll(0);
    EXPECT_EQ(violations[0], 0u) << "healthy substrate flagged";
    EXPECT_GT(violations[1], 0u) << "desynced substrate not caught";
}

// --- Replay threads ---------------------------------------------------

/**
 * Run @p configs as one pass at 1, 2, 3 and 8 threads. The budget
 * counts the recording thread, so a pass uses at most one thread per
 * config beside it. Every run must equal each config's reference solo
 * run, and so every other thread count, and no audit may fire.
 * @p lockstep: the group audits Periodic/Paranoid and must replay on
 * the calling thread alone.
 */
void
expectSameAtEveryThreadCount(const std::vector<SystemConfig> &configs,
                             const WorkloadSpec &workload,
                             bool lockstep = false)
{
    std::vector<RunResult> solo;
    for (const SystemConfig &cfg : configs)
        solo.push_back(soloReferenceRun(cfg, workload));

    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
        MultiConfigEngine engine(configs, workload, threads);
        const unsigned expected =
            lockstep ? 1u
                     : std::min(threads,
                                static_cast<unsigned>(configs.size()) +
                                    1);
        EXPECT_EQ(engine.replayThreads(), expected);
        std::uint64_t violations = 0;
        for (unsigned s = 0; s < engine.substrates(); ++s) {
            if (check::InvariantAuditor *auditor = engine.auditor(s)) {
                auditor->setViolationHandler(
                    [&violations](const check::Violation &) {
                        ++violations;
                    });
            }
        }
        const std::vector<RunResult> one_pass = engine.run();
        EXPECT_EQ(violations, 0u) << threads << " threads";
        ASSERT_EQ(one_pass.size(), configs.size());
        for (std::size_t i = 0; i < configs.size(); ++i) {
            expectSameResult(one_pass[i], solo[i],
                             std::to_string(threads) +
                                 " threads, substrate " +
                                 std::to_string(i));
        }
    }
}

TEST(MultiConfigEngineReplay, SixDesignsAtEveryThreadCount)
{
    std::vector<SystemConfig> configs;
    for (L1Kind kind :
         {L1Kind::ViptBaseline, L1Kind::Pipt, L1Kind::Seesaw,
          L1Kind::ViptWayPredicted, L1Kind::SeesawWayPredicted,
          L1Kind::Sipt})
        configs.push_back(baseConfig(kind));
    expectSameAtEveryThreadCount(configs, testWorkload());
}

TEST(MultiConfigEngineReplay, OsEventScheduleAtEveryThreadCount)
{
    // Promotions, splinters and context switches land inside batches:
    // their substrate side must replay at the recorded step.
    std::vector<SystemConfig> configs;
    for (L1Kind kind :
         {L1Kind::Seesaw, L1Kind::SeesawWayPredicted,
          L1Kind::ViptBaseline}) {
        SystemConfig cfg = baseConfig(kind);
        cfg.promotionInterval = 5'000;
        cfg.splinterInterval = 15'000;
        cfg.contextSwitchInterval = 20'000;
        configs.push_back(cfg);
    }
    expectSameAtEveryThreadCount(configs, testWorkload());
}

TEST(MultiConfigEngineReplay, InstructionCachePathAtEveryThreadCount)
{
    WorkloadSpec w = testWorkload();
    w.codeFootprintBytes = 8ULL << 20;
    std::vector<SystemConfig> configs;
    for (L1Kind kind : {L1Kind::Seesaw, L1Kind::ViptBaseline}) {
        SystemConfig cfg = baseConfig(kind);
        cfg.modelInstructionCache = true;
        configs.push_back(cfg);
    }
    SystemConfig mixed = baseConfig(L1Kind::Seesaw);
    mixed.modelInstructionCache = true;
    mixed.icacheKind = SystemConfig::ICacheKind::Vipt;
    configs.push_back(mixed);
    expectSameAtEveryThreadCount(configs, w);
}

TEST(MultiConfigEngineReplay, TraceLoopsAtEveryThreadCount)
{
    // A trace far shorter than the budget, so the front end re-opens
    // it mid-run; every eighth reference lands outside the mapped heap
    // and demand-faults on the first loop. Two TLB groups.
    const std::string path =
        std::string(::testing::TempDir()) + "/mce_loop.trace";
    {
        ReferenceStream stream(testWorkload(), Addr{1} << 40, 0x100f);
        TraceWriter writer(path);
        for (unsigned i = 0; i < 2'000; ++i) {
            MemRef ref = stream.next();
            if (i % 8 == 7)
                ref.va = (Addr{3} << 40) + (i / 8) * 0x3000ULL;
            writer.append(ref);
        }
    }
    std::vector<SystemConfig> configs;
    for (L1Kind kind : {L1Kind::Seesaw, L1Kind::ViptBaseline})
        configs.push_back(baseConfig(kind));
    SystemConfig in_order = baseConfig(L1Kind::Seesaw);
    in_order.coreKind = CoreKind::InOrder;
    configs.push_back(in_order);
    for (SystemConfig &cfg : configs) {
        cfg.tracePath = path;
        cfg.warmupInstructions = 0; // measure the first loop's faults
    }

    expectSameAtEveryThreadCount(configs, testWorkload());
    const RunResult r = soloReferenceRun(configs[0], testWorkload());
    EXPECT_GT(r.pageFaults, 0u);
    EXPECT_GT(r.l1Accesses, 2'000u); // more references than the file
    std::remove(path.c_str());
}

TEST(MultiConfigEngineReplay, FourCoreDirectoryAtEveryThreadCount)
{
    std::vector<SystemConfig> configs;
    for (L1Kind kind :
         {L1Kind::Seesaw, L1Kind::ViptBaseline, L1Kind::Pipt}) {
        SystemConfig cfg = baseConfig(kind);
        cfg.cores = 4;
        cfg.fabric = CoherenceKind::Directory;
        cfg.promotionInterval = 10'000;
        configs.push_back(cfg);
    }
    expectSameAtEveryThreadCount(configs, testWorkload());
}

TEST(MultiConfigEngineReplay, ParanoidAuditsReplayInLockstep)
{
    // Paranoid audits read the shared OS and TLB state after every
    // step, so the pass must replay each step before the next is
    // drawn — on one thread, whatever the budget. A front end running
    // ahead would splinter pages the substrates' TFTs still cover.
    std::vector<SystemConfig> configs;
    for (L1Kind kind : {L1Kind::Seesaw, L1Kind::ViptBaseline}) {
        SystemConfig cfg = baseConfig(kind);
        cfg.instructions = 4'000;
        cfg.warmupInstructions = 1'000;
        cfg.promotionInterval = 1'000;
        cfg.splinterInterval = 500;
        cfg.contextSwitchInterval = 2'000;
        cfg.audit.mode = check::AuditMode::Paranoid;
        configs.push_back(cfg);
    }
    if (!check::kAuditCompiledIn)
        GTEST_SKIP() << "audit layer compiled out";
    expectSameAtEveryThreadCount(configs, testWorkload(),
                                 /*lockstep=*/true);
}

TEST(MultiConfigEngineReplay, OneSubstratePipelinesAtEveryThreadCount)
{
    // A single-core solo pass records on the calling thread and
    // replays on one more, with the OS-event schedule and a trace the
    // front end re-opens mid-run. At cores=4 over the directory fabric
    // the pass replays inline at any thread count.
    const std::string path =
        std::string(::testing::TempDir()) + "/mce_solo.trace";
    {
        ReferenceStream stream(testWorkload(), Addr{1} << 40, 0x5010);
        TraceWriter writer(path);
        for (unsigned i = 0; i < 3'000; ++i)
            writer.append(stream.next());
    }
    SystemConfig single = baseConfig(L1Kind::Seesaw);
    single.tracePath = path;
    single.promotionInterval = 5'000;
    single.splinterInterval = 15'000;
    single.contextSwitchInterval = 7'000;

    SystemConfig quad = baseConfig(L1Kind::Seesaw);
    quad.cores = 4;
    quad.fabric = CoherenceKind::Directory;
    quad.promotionInterval = 10'000;

    for (const SystemConfig &cfg : {single, quad}) {
        const RunResult solo = soloReferenceRun(cfg, testWorkload());
        for (const unsigned threads : {1u, 2u, 3u, 8u}) {
            MultiConfigEngine engine({cfg}, testWorkload(), threads);
            EXPECT_EQ(engine.replayThreads(),
                      cfg.cores == 1 ? std::min(threads, 2u) : 1u);
            const std::vector<RunResult> one_pass = engine.run();
            ASSERT_EQ(one_pass.size(), 1u);
            expectSameResult(one_pass[0], solo,
                             std::to_string(cfg.cores) + " cores, " +
                                 std::to_string(threads) + " threads");
        }
    }
    std::remove(path.c_str());
}

/** A campaign of one one-pass group of four designs. */
harness::CampaignSpec
loneGroupSpec()
{
    harness::CampaignSpec spec("replay-threads");
    const std::pair<const char *, L1Kind> designs[] = {
        {"vipt", L1Kind::ViptBaseline},
        {"seesaw", L1Kind::Seesaw},
        {"pipt", L1Kind::Pipt},
        {"sipt", L1Kind::Sipt},
    };
    for (const auto &[name, kind] : designs) {
        SystemConfig cfg = baseConfig(kind);
        cfg.instructions = 10'000;
        cfg.warmupInstructions = 2'000;
        spec.cell(name, testWorkload(), cfg);
    }
    return spec;
}

harness::CampaignOutcome
runOnePass(const harness::CampaignSpec &spec, unsigned jobs)
{
    harness::RunnerOptions options;
    options.jobs = jobs;
    options.progress = false;
    options.onePass = true;
    return harness::CampaignRunner(options).run(spec);
}

TEST(MultiConfigEngineReplay, RunnerHandsALoneGroupItsJobs)
{
    const harness::CampaignSpec spec = loneGroupSpec();
    const harness::CampaignOutcome wide = runOnePass(spec, 4);
    const harness::CampaignOutcome narrow = runOnePass(spec, 1);
    EXPECT_EQ(wide.replayThreads, 4u);
    EXPECT_EQ(narrow.replayThreads, 1u);
    ASSERT_EQ(wide.results.size(), narrow.results.size());
    for (std::size_t i = 0; i < wide.results.size(); ++i)
        expectSameResult(wide.results[i].result,
                         narrow.results[i].result,
                         wide.results[i].name);
}

TEST(MultiConfigEngineReplay, PooledGroupsReplayOnOneThreadEach)
{
    // Two groups (two workloads) share the runner's pool, which
    // already spends the thread budget.
    harness::CampaignSpec spec = loneGroupSpec();
    WorkloadSpec other = testWorkload();
    other.footprintBytes = 16ULL << 20;
    for (const auto &[name, kind] :
         {std::pair{"small-vipt", L1Kind::ViptBaseline},
          std::pair{"small-seesaw", L1Kind::Seesaw}}) {
        SystemConfig cfg = baseConfig(kind);
        cfg.instructions = 10'000;
        cfg.warmupInstructions = 2'000;
        spec.cell(name, other, cfg);
    }
    EXPECT_EQ(runOnePass(spec, 4).replayThreads, 1u);
}

} // namespace
} // namespace seesaw

/**
 * @file
 * SimEngine unification tests:
 *  - cores=1 reproduces the pre-refactor single-core System
 *    bit-for-bit (golden stats captured from the last System build);
 *  - per-core seeds are decorrelated (SplitMix64 regression for the
 *    old `seed ^ (salt + core)` scheme);
 *  - multi-core runs honor tftAssoc, warmupInstructions and coreKind,
 *    which the old MultiCoreSystem silently ignored;
 *  - a feature matrix the 6-cell golden misses (multi-core fabrics,
 *    the L1I, trace replay with demand faults, the 1GB heap, a dense
 *    OS-event schedule, Paranoid audits) keeps its RunResult
 *    fingerprints exactly.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>

#include "check/invariant_auditor.hh"
#include "harness/sinks.hh"
#include "sim/sim_engine.hh"
#include "workload/trace.hh"

namespace seesaw {
namespace {

WorkloadSpec
goldenWorkload()
{
    WorkloadSpec w = findWorkload("redis");
    w.footprintBytes = 32ULL << 20;
    w.hotSetBytes = 2ULL << 20;
    return w;
}

SystemConfig
goldenConfig(L1Kind kind, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.l1Kind = kind;
    cfg.instructions = 60'000;
    cfg.warmupInstructions = 30'000;
    cfg.os.memBytes = 1ULL << 30;
    cfg.seed = seed;
    return cfg;
}

struct GoldenRow
{
    L1Kind kind;
    std::uint64_t seed;
    std::uint64_t instructions;
    std::uint64_t cycles;
    double ipc;
    std::uint64_t l1Accesses;
    std::uint64_t l1Hits;
    std::uint64_t l1Misses;
    std::uint64_t fastHits;
    std::uint64_t l2Accesses;
    std::uint64_t llcAccesses;
    std::uint64_t dramAccesses;
    std::uint64_t tftLookups;
    std::uint64_t tftHits;
    std::uint64_t superpageRefs;
    double energyTotalNj;
    double superpageCoverage;
    std::uint64_t squashes;
    std::uint64_t probes;
    std::uint64_t probeHits;
};

constexpr L1Kind SeesawKind = L1Kind::Seesaw;
constexpr L1Kind ViptKind = L1Kind::ViptBaseline;

// Captured from the pre-refactor System (sim/system.cc at commit
// 8b47152) on goldenWorkload()/goldenConfig(). The unified engine at
// cores=1 must reproduce every field exactly, doubles included.
const GoldenRow kGolden[] = {
    {SeesawKind, 1ULL, 60000ULL, 40666ULL, 1.4754340235085821,
     21856ULL, 19775ULL, 2081ULL, 21851ULL, 2081ULL, 1199ULL, 16ULL,
     21856ULL, 21851ULL, 21856ULL, 5308.5174311620785, 1, 2081ULL,
     2700ULL, 2445ULL},
    {SeesawKind, 2ULL, 60000ULL, 38321ULL, 1.565721145064064,
     21710ULL, 19848ULL, 1862ULL, 21707ULL, 1862ULL, 1233ULL, 15ULL,
     21710ULL, 21707ULL, 21710ULL, 5052.3264258863428, 0.9375,
     1862ULL, 2699ULL, 2430ULL},
    {SeesawKind, 3ULL, 60000ULL, 39524ULL, 1.5180649731808522,
     21609ULL, 19629ULL, 1980ULL, 21602ULL, 1980ULL, 1178ULL, 15ULL,
     21609ULL, 21602ULL, 21609ULL, 5193.4346813431557, 1, 1980ULL,
     2700ULL, 2477ULL},
    {ViptKind, 1ULL, 60000ULL, 39574ULL, 1.5161469651791579,
     21856ULL, 20031ULL, 1825ULL, 0ULL, 1825ULL, 1199ULL, 16ULL, 0ULL,
     0ULL, 0ULL, 5611.597450411351, 1, 1825ULL, 2700ULL, 2459ULL},
    {ViptKind, 2ULL, 60000ULL, 40029ULL, 1.498913287866297, 21710ULL,
     19854ULL, 1856ULL, 0ULL, 1856ULL, 1233ULL, 15ULL, 0ULL, 0ULL,
     0ULL, 5626.9119367895983, 0.9375, 1856ULL, 2699ULL, 2420ULL},
    {ViptKind, 3ULL, 60000ULL, 38715ULL, 1.5497869043006587,
     21609ULL, 19858ULL, 1751ULL, 0ULL, 1751ULL, 1178ULL, 15ULL, 0ULL,
     0ULL, 0ULL, 5523.3961416298825, 1, 1751ULL, 2700ULL, 2490ULL},
};

TEST(SimEngineGolden, SingleCoreIsBitIdenticalToPreRefactorSystem)
{
    for (const GoldenRow &g : kGolden) {
        SimEngine engine(goldenConfig(g.kind, g.seed),
                         goldenWorkload());
        const RunResult r = engine.run();
        const std::string tag =
            std::string(g.kind == SeesawKind ? "seesaw" : "vipt") +
            "/s" + std::to_string(g.seed);

        EXPECT_EQ(r.instructions, g.instructions) << tag;
        EXPECT_EQ(r.cycles, g.cycles) << tag;
        EXPECT_EQ(r.ipc, g.ipc) << tag; // exact: same division
        EXPECT_EQ(r.l1Accesses, g.l1Accesses) << tag;
        EXPECT_EQ(r.l1Hits, g.l1Hits) << tag;
        EXPECT_EQ(r.l1Misses, g.l1Misses) << tag;
        EXPECT_EQ(r.fastHits, g.fastHits) << tag;
        EXPECT_EQ(r.l2Accesses, g.l2Accesses) << tag;
        EXPECT_EQ(r.llcAccesses, g.llcAccesses) << tag;
        EXPECT_EQ(r.dramAccesses, g.dramAccesses) << tag;
        EXPECT_EQ(r.tftLookups, g.tftLookups) << tag;
        EXPECT_EQ(r.tftHits, g.tftHits) << tag;
        EXPECT_EQ(r.superpageRefs, g.superpageRefs) << tag;
        EXPECT_EQ(r.energyTotalNj, g.energyTotalNj) << tag; // exact
        EXPECT_EQ(r.superpageCoverage, g.superpageCoverage) << tag;
        EXPECT_EQ(r.squashes, g.squashes) << tag;
        EXPECT_EQ(r.probes, g.probes) << tag;
        EXPECT_EQ(r.probeHits, g.probeHits) << tag;
        EXPECT_EQ(r.cores, 1u) << tag;
        ASSERT_EQ(r.perCore.size(), 1u) << tag;
        EXPECT_EQ(r.perCore[0].cycles, g.cycles) << tag;
        EXPECT_EQ(r.perCore[0].instructions, g.instructions) << tag;
    }
}

TEST(SimEngineSeeds, CoreZeroKeepsTheConfigSeed)
{
    EXPECT_EQ(SimEngine::coreSeed(42, 0), 42u);
    EXPECT_EQ(SimEngine::coreSeed(0xdeadbeef, 0), 0xdeadbeefULL);
}

TEST(SimEngineSeeds, AdjacentCoreSeedsAvalanche)
{
    // Regression for the old `seed ^ (0x7ead0 + c)` scheme, where
    // adjacent cores' seeds differed in one or two low bits. The
    // SplitMix64 finalizer must flip about half the bits.
    for (std::uint64_t seed : {1ULL, 5ULL, 0x123456789abcdefULL}) {
        for (unsigned c = 1; c < 16; ++c) {
            const std::uint64_t a = SimEngine::coreSeed(seed, c);
            const std::uint64_t b = SimEngine::coreSeed(seed, c + 1);
            const int flipped = std::popcount(a ^ b);
            EXPECT_GE(flipped, 16) << "seed " << seed << " core " << c;
            EXPECT_LE(flipped, 48) << "seed " << seed << " core " << c;
            EXPECT_NE(a, seed);
        }
    }
}

TEST(SimEngineSeeds, AdjacentCoreReferenceStreamsAreUncorrelated)
{
    // Two cores walk the same workload (same heap, same hot set), but
    // their private-access sequences must not be phase-locked: count
    // position-wise VA collisions over a window.
    const WorkloadSpec w = goldenWorkload();
    const Addr heap_base = Addr{1} << 40;
    const std::uint64_t seed = 5;
    ReferenceStream s1(w, heap_base,
                       SimEngine::coreSeed(seed, 1) ^ 0x57ea0ULL, 1);
    ReferenceStream s2(w, heap_base,
                       SimEngine::coreSeed(seed, 2) ^ 0x57ea0ULL, 2);
    const int n = 4096;
    int same = 0;
    for (int i = 0; i < n; ++i)
        same += s1.next().va == s2.next().va ? 1 : 0;
    // Shared-region references may collide by chance; lockstep streams
    // would collide at nearly 100%.
    EXPECT_LT(same, n / 20);
}

TEST(SimEngineConfig, MultiCoreHonorsTftAssoc)
{
    SystemConfig cfg;
    cfg.cores = 4;
    cfg.instructions = 2'000;
    cfg.warmupInstructions = 0;
    cfg.os.memBytes = 512ULL << 20;
    cfg.tftAssoc = 4;
    SimEngine engine(cfg, goldenWorkload());
    for (unsigned c = 0; c < 4; ++c) {
        ASSERT_NE(engine.seesawL1(c), nullptr);
        EXPECT_EQ(engine.seesawL1(c)->tft().assoc(), 4u) << c;
    }
}

TEST(SimEngineConfig, MultiCoreHonorsWarmupInstructions)
{
    WorkloadSpec w = goldenWorkload();
    SystemConfig cfg;
    cfg.cores = 4;
    cfg.instructions = 20'000;
    cfg.warmupInstructions = 0;
    cfg.os.memBytes = 512ULL << 20;
    const RunResult cold = SimEngine(cfg, w).run();
    cfg.warmupInstructions = 20'000;
    const RunResult warm = SimEngine(cfg, w).run();

    // Both runs measure exactly the per-core budget...
    for (const PerCoreResult &pc : cold.perCore)
        EXPECT_GE(pc.instructions, 20'000u);
    for (const PerCoreResult &pc : warm.perCore)
        EXPECT_GE(pc.instructions, 20'000u);
    // ...but warmed caches measurably change the measured window.
    EXPECT_NE(cold.cycles, warm.cycles);
    EXPECT_LT(warm.l1Misses, cold.l1Misses);
}

TEST(SimEngineConfig, MultiCoreHonorsCoreKind)
{
    WorkloadSpec w = goldenWorkload();
    SystemConfig cfg;
    cfg.cores = 4;
    cfg.instructions = 10'000;
    cfg.warmupInstructions = 2'000;
    cfg.os.memBytes = 512ULL << 20;
    cfg.coreKind = CoreKind::InOrder;
    const RunResult inorder = SimEngine(cfg, w).run();
    cfg.coreKind = CoreKind::OutOfOrder;
    const RunResult ooo = SimEngine(cfg, w).run();

    // In-order pipelines have no speculative wakeup to squash, and
    // expose latencies the OoO window hides.
    EXPECT_EQ(inorder.squashes, 0u);
    EXPECT_GT(inorder.cycles, ooo.cycles);
}


// --- Feature-matrix golden --------------------------------------------

/** 64-bit FNV-1a over every RunResult field (harness::resultFields,
 *  then each core's perCoreFields), doubles in hex-float form: the
 *  canonical form perfbench/workloads.cc fingerprints. */
std::string
fingerprint(const RunResult &r)
{
    std::string text =
        "workload=" + r.workload + " cores=" + std::to_string(r.cores);
    char buf[64];
    const auto append = [&](const char *name, bool integral,
                            std::uint64_t u, double d) {
        if (integral)
            std::snprintf(buf, sizeof(buf), " %s=%" PRIu64, name, u);
        else
            std::snprintf(buf, sizeof(buf), " %s=%a", name, d);
        text += buf;
    };
    for (const auto &f : harness::resultFields(r))
        append(f.name, f.integral, f.u, f.d);
    for (PerCoreResult pc : r.perCore) {
        text += " |";
        for (const auto &f : harness::perCoreFields(pc))
            append(f.name, f.integral, f.integral ? *f.u : 0,
                   f.integral ? 0.0 : *f.d);
    }
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

/** A four-core group on @p fabric. */
SystemConfig
fourCoreConfig(CoherenceKind fabric)
{
    SystemConfig cfg = goldenConfig(L1Kind::Seesaw, 1);
    cfg.cores = 4;
    cfg.fabric = fabric;
    cfg.l1SizeBytes = 64 * 1024;
    cfg.l1Assoc = 16;
    cfg.instructions = 20'000;
    cfg.warmupInstructions = 10'000;
    return cfg;
}

/** A trace of heap references with an unmapped region every eighth
 *  record, so the replay demand-faults throughout the run. */
std::string
writeFaultingTrace()
{
    const std::string path =
        std::string(::testing::TempDir()) + "/feature_matrix.trace";
    ReferenceStream stream(goldenWorkload(), Addr{1} << 40, 0x7ace);
    TraceWriter writer(path);
    for (unsigned i = 0; i < 6'000; ++i) {
        MemRef ref = stream.next();
        if (i % 8 == 7)
            ref.va = (Addr{3} << 40) + (i / 8) * 0x3000ULL;
        writer.append(ref);
    }
    return path;
}

/** One solo run and its fingerprint, recorded from the two-engine
 *  build (commit 42824d8) before SimEngine became the one-substrate
 *  case of MultiConfigEngine. */
struct FeatureCell
{
    const char *name;
    SystemConfig config;
    WorkloadSpec workload;
    const char *fingerprint;
};

std::vector<FeatureCell>
featureMatrix(const std::string &trace_path)
{
    std::vector<FeatureCell> cells;
    cells.push_back({"directory-4c",
                     fourCoreConfig(CoherenceKind::Directory),
                     goldenWorkload(), "adf5d595959e4bbf"});
    cells.push_back({"snoopy-4c", fourCoreConfig(CoherenceKind::Snoopy),
                     goldenWorkload(), "5438ad47ad20598a"});
    cells.push_back({"no-fabric-4c", fourCoreConfig(CoherenceKind::None),
                     goldenWorkload(), "0ac300cdd6612487"});

    SystemConfig icache = goldenConfig(L1Kind::Seesaw, 2);
    icache.modelInstructionCache = true;
    icache.icacheKind = SystemConfig::ICacheKind::Seesaw;
    WorkloadSpec code_heavy = goldenWorkload();
    code_heavy.codeFootprintBytes = 8ULL << 20;
    cells.push_back(
        {"seesaw-l1i", icache, code_heavy, "c2b524dad4795c21"});

    SystemConfig trace = goldenConfig(L1Kind::Seesaw, 3);
    trace.tracePath = trace_path;
    trace.instructions = 40'000;
    trace.warmupInstructions = 10'000;
    cells.push_back({"trace-demand-faults", trace, goldenWorkload(),
                     "9af24a554006e2f1"});

    SystemConfig gig = goldenConfig(L1Kind::Seesaw, 1);
    gig.useOneGbHeap = true;
    gig.os.memBytes = 4ULL << 30;
    cells.push_back(
        {"one-gb-heap", gig, goldenWorkload(), "0362edf404923d96"});

    SystemConfig events = goldenConfig(L1Kind::SeesawWayPredicted, 2);
    events.promotionInterval = 5'000;
    events.splinterInterval = 7'000;
    events.contextSwitchInterval = 3'000;
    cells.push_back({"dense-os-events", events, goldenWorkload(),
                     "4f7bebc69d0fd098"});

    SystemConfig paranoid = goldenConfig(L1Kind::Seesaw, 3);
    paranoid.instructions = 6'000;
    paranoid.warmupInstructions = 2'000;
    paranoid.promotionInterval = 1'000;
    paranoid.splinterInterval = 1'500;
    paranoid.contextSwitchInterval = 2'000;
    paranoid.audit.mode = check::AuditMode::Paranoid;
    cells.push_back({"paranoid-audit", paranoid, goldenWorkload(),
                     "4691e0c8f8d3ae22"});
    return cells;
}

TEST(SimEngineGolden, FeatureMatrixFingerprintsHold)
{
    const std::string trace_path = writeFaultingTrace();
    for (const FeatureCell &cell : featureMatrix(trace_path)) {
        SimEngine engine(cell.config, cell.workload);
        std::uint64_t violations = 0;
        if (check::InvariantAuditor *auditor = engine.auditor()) {
            auditor->setViolationHandler(
                [&violations](const check::Violation &) {
                    ++violations;
                });
        }
        const RunResult r = engine.run();
        EXPECT_EQ(fingerprint(r), cell.fingerprint) << cell.name;
        EXPECT_EQ(violations, 0u) << cell.name;

        // Each cell exercises the feature it is named for.
        const SystemConfig &cfg = cell.config;
        if (cfg.cores > 1) {
            EXPECT_EQ(r.probes == 0, cfg.fabric == CoherenceKind::None)
                << cell.name;
        }
        if (cfg.modelInstructionCache) {
            EXPECT_GT(r.l1iAccesses, 0u) << cell.name;
        }
        if (!cfg.tracePath.empty()) {
            EXPECT_GT(r.pageFaults, 0u) << cell.name;
        }
        if (cfg.useOneGbHeap) {
            EXPECT_GT(r.superpageRefs, 0u) << cell.name;
        }
        if (cfg.promotionInterval < 10'000) {
            EXPECT_GT(r.promotions, 0u) << cell.name;
        }
        if (cfg.splinterInterval < 10'000) {
            EXPECT_GT(r.splinters, 0u) << cell.name;
        }
    }
    std::remove(trace_path.c_str());
}

} // namespace
} // namespace seesaw

#include "sim/sim_engine.hh"

#include <utility>

#include "check/cache_audits.hh"
#include "check/coherence_audits.hh"
#include "check/invariant_auditor.hh"
#include "check/mem_audits.hh"
#include "check/tlb_audits.hh"

namespace seesaw {

std::uint64_t
SimEngine::coreSeed(std::uint64_t seed, unsigned core)
{
    if (core == 0)
        return seed; // core 0 is the classic single-core stream
    // SplitMix64: golden-ratio increment + finalizer. A plain
    // `seed ^ (salt + core)` leaves adjacent cores' streams
    // low-bit-correlated; the finalizer avalanches every input bit.
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * core;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

SimEngine::SimEngine(const SystemConfig &config,
                     const WorkloadSpec &workload)
    : engine_({config}, workload)
{
}

RunResult
SimEngine::run()
{
    std::vector<RunResult> results = engine_.run();
    return std::move(results.front());
}

namespace {

bool
isSeesawConfig(const SystemConfig &config)
{
    return config.l1Kind == L1Kind::Seesaw ||
           config.l1Kind == L1Kind::SeesawWayPredicted;
}

} // namespace

void
registerSystemAudits(check::InvariantAuditor &auditor,
                     const SystemConfig &config,
                     std::vector<CoreComplex *> complexes,
                     SetAssocCache *shared_llc, ExactDirectory *directory,
                     OsMemoryManager &os, Asid asid)
{
    const bool multi = config.cores > 1;
    const unsigned n = config.cores;
    OsMemoryManager *os_p = &os;
    const auto cxs = std::move(complexes);

    if (directory) {
        auditor.registerCheck(
            "directory", [cxs, directory](check::AuditContext &ctx) {
                std::vector<const L1Cache *> l1s;
                l1s.reserve(cxs.size());
                for (CoreComplex *cx : cxs)
                    l1s.push_back(&cx->l1());
                check::auditDirectoryConsistency(*directory, l1s, ctx);
            });
    }

    // Duplicate lines (one PA in two ways) are legal only under the
    // 4way-8way SEESAW policy, where a page mapped both base and super
    // can be installed twice (§IV-B1).
    const bool allow_dup =
        isSeesawConfig(config) &&
        config.policy == InsertionPolicy::FourWayEightWay;

    auditor.registerCheck(
        "l1.tags",
        [cxs, allow_dup, multi, n](check::AuditContext &ctx) {
            for (unsigned c = 0; c < n; ++c) {
                if (multi)
                    ctx.core = static_cast<int>(c);
                check::auditTagStoreSanity(cxs[c]->l1().tags(), ctx,
                                           allow_dup);
            }
        });
    auditor.registerCheck(
        "tlb", [cxs, os_p, multi, n](check::AuditContext &ctx) {
            for (unsigned c = 0; c < n; ++c) {
                if (multi)
                    ctx.core = static_cast<int>(c);
                check::auditTlbAgainstPageTable(cxs[c]->tlb(),
                                                os_p->pageTable(), ctx);
            }
        });
    auditor.registerCheck(
        "mem.tcache", [os_p](check::AuditContext &ctx) {
            check::auditTranslationCacheAgainstPageTable(
                os_p->pageTable(), ctx);
        });
    if (multi) {
        auditor.registerCheck(
            "outer.tags", [cxs, shared_llc, n](check::AuditContext &ctx) {
                for (unsigned c = 0; c < n; ++c) {
                    ctx.core = static_cast<int>(c);
                    check::auditTagStoreSanity(cxs[c]->outer().l2(),
                                               ctx);
                }
                ctx.core = -1;
                check::auditTagStoreSanity(*shared_llc, ctx);
            });
    }
    if (isSeesawConfig(config)) {
        auditor.registerCheck(
            "l1.partition",
            [cxs, multi, n](check::AuditContext &ctx) {
                for (unsigned c = 0; c < n; ++c) {
                    if (multi)
                        ctx.core = static_cast<int>(c);
                    check::auditSeesawPlacement(*cxs[c]->seesawL1(),
                                                ctx);
                }
            });
        auditor.registerCheck(
            "l1.prefetch",
            [cxs, multi, n](check::AuditContext &ctx) {
                for (unsigned c = 0; c < n; ++c) {
                    if (multi)
                        ctx.core = static_cast<int>(c);
                    check::auditPrefetchPlacement(*cxs[c]->seesawL1(),
                                                  ctx);
                }
            });
        auditor.registerCheck(
            "l1.tft", [cxs, os_p, asid, multi, n](check::AuditContext &ctx) {
                for (unsigned c = 0; c < n; ++c) {
                    if (multi)
                        ctx.core = static_cast<int>(c);
                    check::auditTftAgainstPageTable(
                        cxs[c]->seesawL1()->tft(), os_p->pageTable(),
                        asid, ctx);
                }
            });
    }
    if (cxs[0]->l1i()) {
        auditor.registerCheck(
            "l1i.tags",
            [cxs, allow_dup, multi, n](check::AuditContext &ctx) {
                for (unsigned c = 0; c < n; ++c) {
                    if (multi)
                        ctx.core = static_cast<int>(c);
                    check::auditTagStoreSanity(cxs[c]->l1i()->tags(),
                                               ctx, allow_dup);
                }
            });
        if (cxs[0]->seesawL1i()) {
            auditor.registerCheck(
                "l1i.partition",
                [cxs, multi, n](check::AuditContext &ctx) {
                    for (unsigned c = 0; c < n; ++c) {
                        if (multi)
                            ctx.core = static_cast<int>(c);
                        check::auditSeesawPlacement(
                            *cxs[c]->seesawL1i(), ctx);
                    }
                });
            auditor.registerCheck(
                "l1i.tft",
                [cxs, os_p, asid, multi, n](check::AuditContext &ctx) {
                    for (unsigned c = 0; c < n; ++c) {
                        if (multi)
                            ctx.core = static_cast<int>(c);
                        check::auditTftAgainstPageTable(
                            cxs[c]->seesawL1i()->tft(),
                            os_p->pageTable(), asid, ctx);
                    }
                });
        }
    }
}

RunResult
collectRunResults(const SystemConfig &config,
                  const WorkloadSpec &workload,
                  const std::vector<CoreComplex *> &complexes,
                  EnergyModel &energy, CoherenceFabric *fabric,
                  OsMemoryManager &os, Asid asid, Cycles max_cycles)
{
    RunResult r;
    r.workload = workload.name;
    r.cores = config.cores;
    r.cycles = max_cycles;
    r.runtimeNs = static_cast<double>(r.cycles) / config.freqGhz;

    double wp_sum = 0.0;
    unsigned wp_count = 0;
    for (CoreComplex *cx : complexes) {
        PerCoreResult pc;
        pc.instructions = cx->cpu().instructions();
        pc.cycles = cx->cpu().cycles();
        pc.ipc = cx->cpu().ipc();
        pc.squashes = cx->cpu().squashes();
        pc.pageFaults = cx->pageFaults();

        const StatGroup &cs = cx->l1().stats();
        pc.l1Accesses =
            static_cast<std::uint64_t>(cs.get("accesses"));
        pc.l1Hits = static_cast<std::uint64_t>(cs.get("hits"));
        pc.l1Misses = static_cast<std::uint64_t>(cs.get("misses"));

        r.instructions += pc.instructions;
        r.l1Accesses += pc.l1Accesses;
        r.l1Hits += pc.l1Hits;
        r.l1Misses += pc.l1Misses;
        r.superpageRefs +=
            static_cast<std::uint64_t>(cs.get("superpage_refs"));
        r.superpageRefsTftMiss = r.superpageRefsTftMiss +
            static_cast<std::uint64_t>(
                cs.get("superpage_refs_tft_miss"));
        r.superpageRefsTftMissL1Hit = r.superpageRefsTftMissL1Hit +
            static_cast<std::uint64_t>(
                cs.get("superpage_refs_tft_miss_l1_hit"));
        r.superpageRefsTftMissL1Miss = r.superpageRefsTftMissL1Miss +
            static_cast<std::uint64_t>(
                cs.get("superpage_refs_tft_miss_l1_miss"));

        const StatGroup &os_stats = cx->outer().stats();
        r.l2Accesses +=
            static_cast<std::uint64_t>(os_stats.get("l2_accesses"));
        r.l2Hits +=
            static_cast<std::uint64_t>(os_stats.get("l2_hits"));
        r.llcAccesses +=
            static_cast<std::uint64_t>(os_stats.get("llc_accesses"));
        r.llcHits +=
            static_cast<std::uint64_t>(os_stats.get("llc_hits"));
        r.dramAccesses +=
            static_cast<std::uint64_t>(os_stats.get("dram_accesses"));

        if (SeesawCache *cache = cx->seesawL1()) {
            r.tftLookups += static_cast<std::uint64_t>(
                cache->tft().stats().get("lookups"));
            pc.tftHits = static_cast<std::uint64_t>(
                cache->tft().stats().get("hits"));
            r.tftHits += pc.tftHits;
            if (const MruWayPredictor *wp = cache->wayPredictor()) {
                wp_sum += wp->accuracy();
                ++wp_count;
            }
        } else if (auto *vipt =
                       dynamic_cast<ViptCache *>(&cx->l1())) {
            if (const MruWayPredictor *wp = vipt->wayPredictor()) {
                wp_sum += wp->accuracy();
                ++wp_count;
            }
        }

        if (L1Cache *l1i = cx->l1i()) {
            r.l1iAccesses += static_cast<std::uint64_t>(
                l1i->stats().get("accesses"));
            r.l1iMisses += static_cast<std::uint64_t>(
                l1i->stats().get("misses"));
        }

        r.prefetchIssued += cx->prefetchIssued();
        r.prefetchUseful += cx->prefetchUseful();
        r.prefetchLate += cx->prefetchLate();
        r.prefetchIllegalCrossing += cx->prefetchIllegalCrossing();

        r.squashes += pc.squashes;
        r.pageFaults += pc.pageFaults;
        r.perCore.push_back(pc);
    }

    r.ipc = r.cycles ? static_cast<double>(r.instructions) /
                           static_cast<double>(r.cycles)
                     : 0.0;
    r.l1Mpki = r.instructions
                   ? 1000.0 * static_cast<double>(r.l1Misses) /
                         static_cast<double>(r.instructions)
                   : 0.0;
    r.superpageRefFraction =
        r.l1Accesses ? static_cast<double>(r.superpageRefs) /
                           static_cast<double>(r.l1Accesses)
                     : 0.0;
    if (isSeesawConfig(config))
        r.fastHits = r.tftHits;
    if (wp_count)
        r.wpAccuracy = wp_sum / static_cast<double>(wp_count);

    r.superpageCoverage = os.superpageCoverage(asid);

    r.energyTotalNj = energy.totalNj();
    r.l1CpuDynamicNj = energy.l1CpuDynamicNj();
    r.l1CoherenceDynamicNj = energy.l1CoherenceDynamicNj();
    r.l1LeakageNj = energy.l1LeakageNj();
    r.outerNj = energy.outerHierarchyNj();
    r.translationNj = energy.translationNj();

    if (fabric) {
        r.probes = fabric->probes();
        r.probeHits = fabric->probeHits();
        r.probeInvalidations = fabric->invalidations();
        r.ownerSupplies = fabric->ownerSupplies();
    } else if (ProbeEngine *probes = complexes[0]->probeEngine()) {
        r.probes = probes->probes();
        r.probeHits = probes->probeHits();
        r.probeInvalidations = probes->invalidations();
    }

    r.promotions = os.promotions();
    r.splinters = os.splinters();
    return r;
}

bool
SimEngine::checkDirectoryInvariant() const
{
    auto &engine = const_cast<MultiConfigEngine &>(engine_);
    ExactDirectory *directory = engine.directory(0);
    if (!directory)
        return true;
    // One-shot run of the shared directory-consistency audit with a
    // collecting handler (the full bidirectional MOESI cross-check).
    check::InvariantAuditor auditor;
    std::uint64_t found = 0;
    auditor.setViolationHandler(
        [&found](const check::Violation &) { ++found; });

    std::vector<const L1Cache *> l1s;
    l1s.reserve(cores());
    for (unsigned c = 0; c < cores(); ++c)
        l1s.push_back(&engine.complex(0, c).l1());
    auditor.registerCheck("directory", [&](check::AuditContext &ctx) {
        check::auditDirectoryConsistency(*directory, l1s, ctx);
    });
    auditor.runAll(0);
    return found == 0;
}

} // namespace seesaw

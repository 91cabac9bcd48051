/**
 * @file
 * The campaign grid, shared between the `campaign` driver and the
 * `seesaw_worker` process. A CampaignSpec is built by code, so the
 * service ships the *arguments* that build it: the driver forwards its
 * grid options verbatim (toArgs()) and every worker rebuilds the
 * identical CampaignSpec from them (buildSpec()). The
 * option values are kept as the raw command-line strings so the
 * round-trip is exact — both sides parse the same bytes and therefore
 * derive the same cells, labels and config hashes.
 */

#ifndef SEESAW_EXAMPLES_CAMPAIGN_GRID_HH
#define SEESAW_EXAMPLES_CAMPAIGN_GRID_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"

namespace seesaw::grid {

inline std::vector<std::string>
splitList(const std::string &arg)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= arg.size()) {
        const auto comma = arg.find(',', start);
        const auto end =
            comma == std::string::npos ? arg.size() : comma;
        if (end > start)
            out.push_back(arg.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

inline bench::CacheOrg
parseOrg(const std::string &size)
{
    for (const auto &org : bench::kCacheOrgs) {
        if (size == org.label ||
            (size.size() > 1 && size.substr(0, size.size() - 1) ==
                                    std::string(org.label).substr(
                                        0, size.size() - 1)))
            return org;
    }
    std::fprintf(stderr, "unknown L1 size %s (use 32K|64K|128K)\n",
                 size.c_str());
    std::exit(1);
}

/** One --mc-cells entry: workload : core count : L1 design. */
struct McCellSpec
{
    std::string workload;
    unsigned cores = 0;
    L1Kind kind = L1Kind::ViptBaseline;
};

inline McCellSpec
parseMcCell(const std::string &tok)
{
    const auto c1 = tok.find(':');
    const auto c2 =
        c1 == std::string::npos ? std::string::npos
                                : tok.find(':', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos) {
        std::fprintf(stderr,
                     "--mc-cells wants WORKLOAD:CORES:DESIGN, got %s\n",
                     tok.c_str());
        std::exit(1);
    }
    McCellSpec mc;
    mc.workload = tok.substr(0, c1);
    mc.cores = static_cast<unsigned>(std::strtoul(
        tok.substr(c1 + 1, c2 - c1 - 1).c_str(), nullptr, 10));
    mc.kind = parseL1Kind(tok.substr(c2 + 1));
    if (mc.cores < 2) {
        std::fprintf(stderr,
                     "--mc-cells needs >= 2 cores (got %s); use the "
                     "regular grid for single-core cells\n",
                     tok.c_str());
        std::exit(1);
    }
    return mc;
}

/**
 * The grid options, stored as the raw command-line strings they were
 * parsed from. Empty means "use the default".
 */
struct GridOptions
{
    std::string campaign = "campaign";
    std::string workloads;    //!< CSV, empty = all paper workloads
    std::string designs;      //!< CSV, empty = vipt,seesaw
    std::string l1;           //!< CSV, empty = all three orgs
    std::string freq;         //!< CSV GHz, empty = 1.33
    std::string memhog;       //!< CSV fractions, empty = 0
    std::string seeds;        //!< CSV, empty = 1
    std::string replacement;  //!< CSV policies, empty = lru
    std::string prefetch;     //!< CSV prefetchers, empty = none
    std::string instructions; //!< empty = 300000 (env-overridable)
    std::string mcCells;      //!< CSV of WORKLOAD:CORES:DESIGN
    std::string audit;        //!< empty = off
    std::string auditPeriod;  //!< empty = 65536

    /**
     * Consume a grid option at argv[i] (value at argv[i+1]).
     * @return true and advances @p i past the value when consumed.
     */
    bool
    parseArg(int argc, char **argv, int &i)
    {
        const auto take = [&](std::string &slot) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             argv[i]);
                std::exit(1);
            }
            slot = argv[++i];
            return true;
        };
        const std::string arg = argv[i];
        if (arg == "--campaign")
            return take(campaign);
        if (arg == "--workloads")
            return take(workloads);
        if (arg == "--designs")
            return take(designs);
        if (arg == "--l1")
            return take(l1);
        if (arg == "--freq")
            return take(freq);
        if (arg == "--memhog")
            return take(memhog);
        if (arg == "--seeds")
            return take(seeds);
        if (arg == "--replacement")
            return take(replacement);
        if (arg == "--prefetch")
            return take(prefetch);
        if (arg == "--instructions")
            return take(instructions);
        if (arg == "--mc-cells")
            return take(mcCells);
        if (arg == "--audit")
            return take(audit);
        if (arg == "--audit-period")
            return take(auditPeriod);
        return false;
    }

    /** The exact argv tail a worker needs to rebuild this grid. */
    std::vector<std::string>
    toArgs() const
    {
        std::vector<std::string> out{"--campaign", campaign};
        const auto add = [&](const char *flag,
                             const std::string &value) {
            if (!value.empty()) {
                out.push_back(flag);
                out.push_back(value);
            }
        };
        add("--workloads", workloads);
        add("--designs", designs);
        add("--l1", l1);
        add("--freq", freq);
        add("--memhog", memhog);
        add("--seeds", seeds);
        add("--replacement", replacement);
        add("--prefetch", prefetch);
        add("--instructions", instructions);
        add("--mc-cells", mcCells);
        add("--audit", audit);
        add("--audit-period", auditPeriod);
        return out;
    }

    /** Expand into the campaign spec. Every process given the same
     *  options derives the identical cells in the identical order. */
    harness::CampaignSpec
    buildSpec() const
    {
        using namespace seesaw::bench;

        std::vector<L1Kind> designKinds{L1Kind::ViptBaseline,
                                        L1Kind::Seesaw};
        if (!designs.empty()) {
            designKinds.clear();
            for (const auto &kind : splitList(designs))
                designKinds.push_back(parseL1Kind(kind));
        }
        std::vector<CacheOrg> orgs(std::begin(kCacheOrgs),
                                   std::end(kCacheOrgs));
        if (!l1.empty()) {
            orgs.clear();
            for (const auto &size : splitList(l1))
                orgs.push_back(parseOrg(size));
        }
        std::vector<double> freqs{1.33};
        if (!freq.empty()) {
            freqs.clear();
            for (const auto &f : splitList(freq))
                freqs.push_back(std::atof(f.c_str()));
        }
        std::vector<double> memhogs{0.0};
        if (!memhog.empty()) {
            memhogs.clear();
            for (const auto &f : splitList(memhog))
                memhogs.push_back(std::atof(f.c_str()));
        }
        std::vector<std::uint64_t> seedList{1};
        if (!seeds.empty()) {
            seedList.clear();
            for (const auto &s : splitList(seeds))
                seedList.push_back(
                    std::strtoull(s.c_str(), nullptr, 10));
        }
        std::vector<ReplacementKind> policies{ReplacementKind::Lru};
        if (!replacement.empty()) {
            policies.clear();
            for (const auto &name : splitList(replacement))
                policies.push_back(parseReplacementKind(name));
        }
        std::vector<PrefetchKind> prefetchers{PrefetchKind::None};
        if (!prefetch.empty()) {
            prefetchers.clear();
            for (const auto &name : splitList(prefetch))
                prefetchers.push_back(parsePrefetchKind(name));
        }
        // Suffix cell labels only when the axis leaves its pinned
        // default, so existing campaign stores keep their cell names.
        const auto policySuffix = [&](ReplacementKind rk,
                                      PrefetchKind pk) {
            std::string suffix;
            if (policies.size() > 1 || rk != ReplacementKind::Lru)
                suffix += std::string("/") + replacementKindName(rk);
            if (prefetchers.size() > 1 || pk != PrefetchKind::None)
                suffix += std::string("/") + prefetchKindName(pk);
            return suffix;
        };
        const std::uint64_t instr =
            instructions.empty()
                ? experimentInstructions(300'000)
                : std::strtoull(instructions.c_str(), nullptr, 10);
        check::AuditOptions auditOptions;
        auditOptions.mode = audit.empty()
                                ? check::AuditMode::Off
                                : check::parseAuditMode(audit);
        if (!auditPeriod.empty())
            auditOptions.periodEvents =
                std::strtoull(auditPeriod.c_str(), nullptr, 10);

        harness::CampaignSpec spec(campaign);
        if (workloads.empty()) {
            spec.workloads(paperWorkloads());
        } else {
            for (const auto &name : splitList(workloads))
                spec.workload(findWorkload(name));
        }
        for (const auto &org : orgs) {
            for (const double f : freqs) {
                for (const double mh : memhogs) {
                    SystemConfig cfg = makeConfig(org, f);
                    cfg.instructions = instr;
                    cfg.memhogFraction = mh;
                    cfg.audit = auditOptions;
                    for (const L1Kind kind : designKinds) {
                        std::string label =
                            std::string(org.label) + "/" +
                            TableReporter::fmt(f, 2) + "GHz";
                        if (memhogs.size() > 1 || mh > 0.0) {
                            label += "/mh" +
                                     std::to_string(static_cast<int>(
                                         mh * 100));
                        }
                        label += std::string("/") + l1KindName(kind);
                        for (const ReplacementKind rk : policies) {
                            for (const PrefetchKind pk : prefetchers) {
                                SystemConfig vcfg =
                                    withDesign(cfg, kind);
                                vcfg.replacement.kind = rk;
                                vcfg.prefetch.kind = pk;
                                spec.variant(
                                    label + policySuffix(rk, pk),
                                    vcfg);
                            }
                        }
                    }
                }
            }
        }
        spec.seeds(seedList);

        // Explicit multi-core cells ride along after the single-core
        // grid; they run on the unified engine with directory
        // coherence and the 64KB/16-way organisation the multicore
        // bench evaluates.
        for (const auto &tok : splitList(mcCells)) {
            const McCellSpec mc = parseMcCell(tok);
            const WorkloadSpec w = findWorkload(mc.workload);
            for (const std::uint64_t seed : seedList) {
                for (const ReplacementKind rk : policies) {
                    for (const PrefetchKind pk : prefetchers) {
                        SystemConfig cfg;
                        cfg.cores = mc.cores;
                        cfg.l1Kind = mc.kind;
                        cfg.l1SizeBytes = 64 * 1024;
                        cfg.l1Assoc = 16;
                        cfg.instructions = instr;
                        cfg.os.memBytes =
                            experimentMemBytes(1ULL << 30);
                        cfg.audit = auditOptions;
                        cfg.seed = seed;
                        cfg.replacement.kind = rk;
                        cfg.prefetch.kind = pk;
                        std::string name =
                            mc.workload + "/c" +
                            std::to_string(mc.cores) + "/" +
                            l1KindName(mc.kind);
                        if (seedList.size() > 1)
                            name += "/s" + std::to_string(seed);
                        name += policySuffix(rk, pk);
                        // mc-cells sharing (workload, cores, seed)
                        // group under --one-pass too.
                        spec.cell(name, w, cfg);
                    }
                }
            }
        }
        return spec;
    }
};

} // namespace seesaw::grid

#endif // SEESAW_EXAMPLES_CAMPAIGN_GRID_HH

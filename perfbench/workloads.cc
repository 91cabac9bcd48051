/**
 * @file
 * The benchmark's three workloads and the canonical RunResult
 * fingerprint. Why each workload exists, and which layers it loads,
 * is in perfbench/README.md.
 */

#include <cinttypes>
#include <cstdio>

#include "bench.hh"
#include "common/logging.hh"
#include "harness/sinks.hh"

namespace perfbench {

using namespace seesaw;

namespace {

/** The fixed part of every cell: the OoO core at 1.33 GHz, audits
 *  off, the benchmark seed. */
SystemConfig
baseConfig(std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.coreKind = CoreKind::OutOfOrder;
    cfg.freqGhz = 1.33;
    cfg.seed = seed;
    cfg.audit.mode = check::AuditMode::Off;
    return cfg;
}

/** Per-core instruction budget and warmup of @p budget. */
void
applyBudget(SystemConfig &cfg, Budget budget, std::uint64_t full,
            std::uint64_t full_warmup)
{
    cfg.instructions = budget == Budget::Full ? full : 40'000;
    cfg.warmupInstructions =
        budget == Budget::Full ? full_warmup : 10'000;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "hot_redis_1c", "frag_sweep_gups", "share_cann_4c"};
    return names;
}

WorkloadDef
makeWorkload(const std::string &name, std::uint64_t seed, Budget budget)
{
    WorkloadDef w;
    w.name = name;
    if (name == "hot_redis_1c") {
        // The per-access hot path on a clean image: setup is a few
        // percent of the wall time, the L1/TFT/TLB path the rest.
        w.spec = findWorkload("redis");
        SystemConfig cfg = baseConfig(seed);
        cfg.l1Kind = L1Kind::Seesaw;
        cfg.l1SizeBytes = 32 * 1024;
        cfg.l1Assoc = 8;
        cfg.os.memBytes = 1ULL << 30;
        applyBudget(cfg, budget, 4'000'000, 150'000);
        w.cells.push_back({name, cfg});
    } else if (name == "frag_sweep_gups") {
        // The fig12 fragmentation point as one design-space group:
        // a 4GB image under 60% memhog churn (setup-heavy) and a
        // 128MB random-update footprint (TLB- and walk-heavy).
        w.spec = findWorkload("gups");
        w.sweep = true;
        const std::pair<const char *, L1Kind> designs[] = {
            {"vipt", L1Kind::ViptBaseline},
            {"seesaw", L1Kind::Seesaw},
            {"wpseesaw", L1Kind::SeesawWayPredicted},
            {"wp", L1Kind::ViptWayPredicted},
            {"pipt", L1Kind::Pipt},
            {"sipt", L1Kind::Sipt},
        };
        for (const auto &[label, kind] : designs) {
            SystemConfig cfg = baseConfig(seed);
            cfg.l1Kind = kind;
            cfg.l1SizeBytes = 32 * 1024;
            cfg.l1Assoc = 8;
            cfg.os.memBytes = 4ULL << 30;
            cfg.memhogFraction = 0.6;
            applyBudget(cfg, budget, 400'000, 150'000);
            w.cells.push_back({name + "/" + label, cfg});
        }
    } else if (name == "share_cann_4c") {
        // Exact MOESI directory over four SEESAW L1s sharing 35% of
        // the footprint with 15% writes: the only workload that runs
        // the coherence fabric and the multi-core engine loop.
        w.spec = findWorkload("cann");
        SystemConfig cfg = baseConfig(seed);
        cfg.l1Kind = L1Kind::Seesaw;
        cfg.l1SizeBytes = 64 * 1024;
        cfg.l1Assoc = 16;
        cfg.cores = 4;
        cfg.fabric = CoherenceKind::Directory;
        cfg.os.memBytes = 1ULL << 30;
        applyBudget(cfg, budget, 1'000'000, 150'000);
        w.cells.push_back({name, cfg});
    } else {
        SEESAW_FATAL("unknown workload '", name, "'");
    }
    return w;
}

std::string
canonical(const RunResult &r)
{
    std::string out = "workload=" + r.workload +
                      " cores=" + std::to_string(r.cores);
    char buf[64];
    const auto append = [&](const char *name, bool integral,
                            std::uint64_t u, double d) {
        if (integral)
            std::snprintf(buf, sizeof(buf), " %s=%" PRIu64, name, u);
        else
            std::snprintf(buf, sizeof(buf), " %s=%a", name, d);
        out += buf;
    };
    for (const auto &f : harness::resultFields(r))
        append(f.name, f.integral, f.u, f.d);
    for (const PerCoreResult &pc : r.perCore) {
        out += " |";
        for (const auto &f :
             harness::perCoreFields(const_cast<PerCoreResult &>(pc)))
            append(f.name, f.integral, f.integral ? *f.u : 0,
                   f.integral ? 0.0 : *f.d);
    }
    return out;
}

std::string
fingerprint(const RunResult &r)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : canonical(r)) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

double
simulatedInstructions(const SystemConfig &config)
{
    return static_cast<double>(config.instructions +
                               config.warmupInstructions) *
           config.cores;
}

} // namespace perfbench

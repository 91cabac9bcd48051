/**
 * @file
 * End-to-end simulator benchmark (perfbench/README.md).
 *
 *   seesaw_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *                [--quick] [--reference FILE] [--perturb-reference]
 *   seesaw_bench --workload NAME --record [--quick]
 *
 * --trace 0 measures the end-to-end metrics (host time of the
 * untraced simulator); --trace 1 the per-layer metrics of a separate
 * traced run. Every simulated cell is checked: against the recorded
 * reference fingerprints at the default seed, and for self-consistency
 * (iterations agree, one-pass equals solo, traced equals untraced) at
 * any seed. Human-readable lines start with '#'; the last line of
 * stdout is the JSON result.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hh"
#include "harness/runner.hh"
#include "mem/memhog.hh"
#include "mem/os_memory_manager.hh"
#include "sim/experiment.hh"
#include "sim/multi_config_engine.hh"

namespace {

using namespace seesaw;
using namespace perfbench;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    bool quick = false;
    bool record = false;
    bool perturbReference = false;
    std::string reference;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "seesaw_bench: %s\n"
                 "usage: seesaw_bench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--quick]\n"
                 "                    [--reference FILE] "
                 "[--perturb-reference] [--record]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseU64(const std::string &flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno || end == text || *end || text[0] == '-')
        usage("bad value for " + flag + ": " + text);
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            o.seed = parseU64(a, value());
        } else if (a == "--seconds") {
            const std::uint64_t s = parseU64(a, value());
            if (s < 1 || s > 600)
                usage("--seconds must be 1-600");
            o.seconds = static_cast<double>(s);
        } else if (a == "--trace") {
            const std::uint64_t t = parseU64(a, value());
            if (t > 1)
                usage("--trace must be 0 or 1");
            o.trace = t == 1;
        } else if (a == "--quick") {
            o.quick = true;
        } else if (a == "--record") {
            o.record = true;
        } else if (a == "--perturb-reference") {
            o.perturbReference = true;
        } else if (a == "--reference") {
            o.reference = value();
        } else {
            usage("unknown argument " + a);
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), o.workload) == names.end())
        usage("unknown or missing --workload '" + o.workload + "'");
    return o;
}

// --- Build guard and host context -----------------------------------

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#endif

/** Refuse to time a build whose numbers would mean nothing. */
void
guardBuild(const WorkloadDef &w)
{
    const std::string flags = SEESAW_BENCH_CXX_FLAGS;
    bool optimized = true;
#if !defined(__OPTIMIZE__)
    optimized = false;
#endif
    if (!optimized || flags.find("-O0") != std::string::npos) {
        std::fprintf(stderr, "seesaw_bench: refusing to time an "
                             "unoptimized build (flags: %s)\n",
                     flags.c_str());
        std::exit(3);
    }
    bool sanitized = flags.find("-fsanitize") != std::string::npos;
#if defined(PERFBENCH_SANITIZED)
    sanitized = true;
#endif
    if (sanitized) {
        std::fprintf(stderr, "seesaw_bench: refusing to time a "
                             "sanitizer build (flags: %s)\n",
                     flags.c_str());
        std::exit(3);
    }
    for (const CellDef &cell : w.cells) {
        if (cell.config.audit.mode != check::AuditMode::Off) {
            std::fprintf(stderr,
                         "seesaw_bench: refusing to time cell %s with "
                         "invariant audits enabled (mode %s)\n",
                         cell.name.c_str(),
                         check::auditModeName(cell.config.audit.mode));
            std::exit(3);
        }
    }
}

volatile std::uint64_t g_sink;

/** The xorshift64* loop bench/perf/perf_throughput times, in M ops/s. */
double
calibrationMops()
{
    constexpr std::uint64_t kOps = 40'000'000;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < kOps; ++i) {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x *= 0x2545f4914f6cdd1dULL;
    }
    const double dt = secondsSince(t0);
    g_sink = x;
    return kOps / dt / 1e6;
}

double
loadAverage()
{
    double load[1] = {0.0};
    return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

void
printHostContext(const Options &o, double load_start, double load_end,
                 double mops)
{
    std::printf("# host calibration_mops=%.1f nproc=%ld "
                "load_start=%.2f load_end=%.2f\n",
                mops, sysconf(_SC_NPROCESSORS_ONLN), load_start,
                load_end);
    std::printf("# build compiler=\"%s\" build_type=%s flags=\"%s\"\n",
                SEESAW_BENCH_COMPILER, SEESAW_BENCH_BUILD_TYPE,
                SEESAW_BENCH_CXX_FLAGS);
    std::printf("# run workload=%s seed=%" PRIu64
                " seconds=%.0f trace=%d budget=%s\n",
                o.workload.c_str(), o.seed, o.seconds, o.trace ? 1 : 0,
                o.quick ? "quick" : "full");
}

// --- Output check ---------------------------------------------------

/** Reference fingerprints: "<budget> <cell> <fingerprint>" lines. */
std::map<std::string, std::string>
loadReference(const std::string &path, const std::string &budget)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "seesaw_bench: cannot read reference "
                             "fingerprints %s\n",
                     path.c_str());
        std::exit(2);
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string b, cell, fp;
        if (fields >> b >> cell >> fp && b == budget)
            out[cell] = fp;
    }
    return out;
}

/**
 * Counts every checked cell and every failure; a failure is printed
 * with its cell name and never dropped.
 */
class Checker
{
  public:
    Checker(std::map<std::string, std::string> reference,
            bool use_reference)
        : reference_(std::move(reference)), useReference_(use_reference)
    {
    }

    /** Check one cell result: against the reference fingerprint (at
     *  the default seed) and against every earlier result of the same
     *  cell. @p what names the path that produced it. */
    void
    check(const std::string &cell, const RunResult &r, const char *what)
    {
        ++attempted_;
        std::string error;
        const std::string text = canonical(r);
        if (useReference_) {
            const auto it = reference_.find(cell);
            const std::string fp = fingerprint(r);
            if (it == reference_.end())
                error = "no reference fingerprint";
            else if (it->second != fp)
                error = "fingerprint " + fp + " != reference " +
                        it->second;
        }
        const auto [seen, fresh] = first_.emplace(cell, text);
        if (error.empty() && !fresh && seen->second != text)
            error = "result differs from the first " + firstWhat_[cell] +
                    " result";
        if (fresh)
            firstWhat_[cell] = what;
        if (!error.empty())
            fail(cell, std::string(what) + ": " + error);
    }

    void
    fail(const std::string &cell, const std::string &why)
    {
        ++failed_;
        std::fprintf(stderr, "FAIL %s: %s\n", cell.c_str(), why.c_str());
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::map<std::string, std::string> reference_;
    bool useReference_;
    std::map<std::string, std::string> first_;
    std::map<std::string, std::string> firstWhat_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

// --- Metric series --------------------------------------------------

/** Python's statistics.quantiles(values, n=4) (exclusive method). */
std::vector<double>
quartiles(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n < 2)
        return {v[0], v[0], v[0]};
    std::vector<double> out;
    for (int i = 1; i < 4; ++i) {
        const double pos = i * static_cast<double>(n + 1) / 4.0;
        const std::size_t j = std::clamp<std::size_t>(
            static_cast<std::size_t>(pos), 1, n - 1);
        const double delta = pos - static_cast<double>(j);
        out.push_back(v[j - 1] + delta * (v[j] - v[j - 1]));
    }
    return out;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Named per-iteration samples, reported as medians. */
class Series
{
  public:
    void
    add(const std::string &name, const char *unit, double value)
    {
        auto [it, fresh] = series_.try_emplace(name);
        if (fresh) {
            order_.push_back(name);
            it->second.unit = unit;
        }
        it->second.values.push_back(std::isfinite(value) ? value : 0.0);
    }

    /** Median, quartiles and count of each series, then the JSON. */
    void
    print(const Checker &checker) const
    {
        for (const std::string &name : order_) {
            const Entry &e = series_.at(name);
            const auto q = quartiles(e.values);
            std::printf("# metric %-32s median=%-14.6g q1=%-14.6g "
                        "q3=%-14.6g n=%zu unit=%s\n",
                        name.c_str(), median(e.values), q[0], q[2],
                        e.values.size(), e.unit.c_str());
            std::printf("# samples %s", name.c_str());
            for (const double v : e.values)
                std::printf(" %.6g", v);
            std::printf("\n");
        }
        std::printf("# fail_rate=%.6g (%" PRIu64 " of %" PRIu64
                    " cells)\n",
                    ratio(static_cast<double>(checker.failed()),
                          static_cast<double>(checker.attempted())),
                    checker.failed(), checker.attempted());
        std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                    ", \"failed\": %" PRIu64 ", \"metrics\": {",
                    checker.failed() == 0 ? "true" : "false",
                    std::max<std::uint64_t>(1, checker.attempted()),
                    checker.failed());
        const char *sep = "";
        for (const std::string &name : order_) {
            const Entry &e = series_.at(name);
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        sep, name.c_str(), median(e.values),
                        e.unit.c_str());
            sep = ", ";
        }
        std::printf("}}\n");
    }

  private:
    struct Entry
    {
        std::string unit;
        std::vector<double> values;
    };
    std::map<std::string, Entry> series_;
    std::vector<std::string> order_;
};

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// --- The workloads' untraced paths -----------------------------------

std::vector<SystemConfig>
configsOf(const WorkloadDef &w)
{
    std::vector<SystemConfig> out;
    for (const CellDef &cell : w.cells)
        out.push_back(cell.config);
    return out;
}

double
instructionsOf(const WorkloadDef &w)
{
    double total = 0.0;
    for (const CellDef &cell : w.cells)
        total += simulatedInstructions(cell.config);
    return total;
}

/** Timings of one untraced engine construction and run(). */
struct EngineTiming
{
    double setupS = 0.0;
    double runS = 0.0;
    double wallS = 0.0; //!< construction, run() and destruction
};

/** Run a single-engine cell (SimEngine) untraced and check it. */
EngineTiming
runSolo(const WorkloadDef &w, const CellDef &cell, Checker &checker,
        const char *what)
{
    EngineTiming t;
    const Clock::time_point t0 = Clock::now();
    RunResult r;
    {
        SimEngine engine(cell.config, w.spec);
        t.setupS = secondsSince(t0);
        const Clock::time_point t1 = Clock::now();
        r = engine.run();
        t.runS = secondsSince(t1);
    }
    t.wallS = secondsSince(t0);
    checker.check(cell.name, r, what);
    return t;
}

/** Run the workload's cells as one MultiConfigEngine pass and check
 *  them. */
EngineTiming
runOnePass(const WorkloadDef &w, Checker &checker)
{
    EngineTiming t;
    const Clock::time_point t0 = Clock::now();
    std::vector<RunResult> results;
    {
        MultiConfigEngine engine(configsOf(w), w.spec);
        t.setupS = secondsSince(t0);
        const Clock::time_point t1 = Clock::now();
        results = engine.run();
        t.runS = secondsSince(t1);
    }
    t.wallS = secondsSince(t0);
    for (std::size_t i = 0; i < w.cells.size(); ++i)
        checker.check(w.cells[i].name, results[i], "one-pass");
    return t;
}

/** Run the workload through the harness (one-pass grouping, one job)
 *  and check it. @return the runner's wall time. */
double
runRunner(const WorkloadDef &w, Checker &checker)
{
    harness::CampaignSpec spec(w.name);
    for (const CellDef &cell : w.cells)
        spec.cell(cell.name, w.spec, cell.config);
    harness::RunnerOptions options;
    options.jobs = 1;
    options.progress = false;
    options.onePass = true;
    const harness::CampaignRunner runner(options);

    const Clock::time_point t0 = Clock::now();
    const harness::CampaignOutcome outcome = runner.run(spec);
    const double wall = secondsSince(t0);
    if (outcome.results.size() != w.cells.size())
        checker.fail(w.name, "runner returned " +
                                 std::to_string(outcome.results.size()) +
                                 " cells");
    for (const harness::CellResult &cell : outcome.results)
        checker.check(cell.name, cell.result, "runner");
    return wall;
}

/** A traced run of one cell, checked against the untraced results. */
RunResult
runTraced(const WorkloadDef &w, const CellDef &cell, Checker &checker,
          TraceStats &stats, std::size_t record_cap)
{
    SimEngine engine(cell.config, w.spec);
    const RunResult r = tracedRun(engine, w.spec, stats, record_cap);
    checker.check(cell.name, r, "traced");
    return r;
}

// --- End-to-end mode ------------------------------------------------

void
runEndToEnd(const WorkloadDef &w, const Options &o, Checker &checker,
            Series &series)
{
    const double instructions = instructionsOf(w);
    const auto iterate = [&](Series &sink, unsigned iteration) {
        if (!w.sweep) {
            const EngineTiming t =
                runSolo(w, w.cells[0], checker, "untraced");
            sink.add("setup_s", "s", t.setupS);
            sink.add("sim_minstr_per_s", "Minstr/s",
                     instructions / t.runS / 1e6);
            sink.add("wall_s", "s", t.wallS);
            return;
        }
        // Alternate which path goes first so neither always runs on
        // the other's freshly released memory.
        double runner_wall = 0.0;
        EngineTiming t;
        if (iteration % 2 == 0) {
            t = runOnePass(w, checker);
            runner_wall = runRunner(w, checker);
        } else {
            runner_wall = runRunner(w, checker);
            t = runOnePass(w, checker);
        }
        sink.add("setup_s", "s", t.setupS);
        sink.add("sim_minstr_per_s", "Minstr/s",
                 instructions / t.runS / 1e6);
        sink.add("wall_s", "s", runner_wall);
    };

    // The first two iterations grow the process heap from the OS
    // (glibc serves the first large blocks by mmap, the next from a
    // growing heap); they are checked but not timed, since a user
    // running many cells pays this once.
    Series untimed;
    iterate(untimed, 0);
    iterate(untimed, 1);
    const Clock::time_point start = Clock::now();
    unsigned iteration = 0;
    do {
        iterate(series, iteration++);
    } while (secondsSince(start) < o.seconds);

    // Self-consistency outside the timed window: each one-pass cell
    // equals its solo simulate(); a single-engine cell's traced run
    // equals its untraced runs.
    for (const CellDef &cell : w.cells) {
        if (w.sweep) {
            checker.check(cell.name, simulate(w.spec, cell.config),
                          "solo simulate()");
        } else {
            TraceStats stats;
            runTraced(w, cell, checker, stats, 0);
        }
    }
    series.add("peak_rss_mb", "MB", peakRssMb());
}

// --- Traced mode ----------------------------------------------------

/** OsMemoryManager construction, memhog churn and the heap mapping,
 *  timed standalone with the first cell's parameters. */
void
timeMemorySetup(const WorkloadDef &w, Series &series)
{
    const SystemConfig &cfg = w.cells[0].config;
    OsParams params = cfg.os;
    params.seed ^= cfg.seed;

    Clock::time_point t = Clock::now();
    OsMemoryManager os(params);
    series.add("mem.os_init_s", "s", secondsSince(t));
    t = Clock::now();
    Memhog memhog(os, cfg.memhog);
    memhog.consume(cfg.memhogFraction);
    series.add("mem.memhog_s", "s", secondsSince(t));
    t = Clock::now();
    const Asid asid = os.createProcess();
    os.mapAnonymous(asid, Addr{1} << 40, w.spec.footprintBytes,
                    w.spec.thpEligibleFraction);
    series.add("mem.map_s", "s", secondsSince(t));
}

double
perCall(const TraceStats &s, Span span)
{
    return ratio(s.ns[span], static_cast<double>(s.calls[span]));
}

/** The per-layer metrics of one traced iteration over all cells. */
void
addLayerMetrics(const TraceStats &s, const ReplayStats &replay,
                const std::vector<RunResult> &results,
                double untraced_run_s, Series &series)
{
    RunResult sum;
    double coverage_sum = 0.0;
    for (const RunResult &r : results) {
        sum.instructions += r.instructions;
        sum.l1Accesses += r.l1Accesses;
        sum.l1Hits += r.l1Hits;
        sum.fastHits += r.fastHits;
        sum.l2Accesses += r.l2Accesses;
        sum.dramAccesses += r.dramAccesses;
        sum.tftLookups += r.tftLookups;
        sum.tftHits += r.tftHits;
        sum.squashes += r.squashes;
        sum.probes += r.probes;
        sum.probeInvalidations += r.probeInvalidations;
        sum.ownerSupplies += r.ownerSupplies;
        sum.promotions += r.promotions;
        sum.splinters += r.splinters;
        coverage_sum += r.superpageCoverage;
    }
    const double cells = static_cast<double>(results.size());
    const double refs = static_cast<double>(s.refs);
    const double l1 = static_cast<double>(sum.l1Accesses);
    const auto per_kref = [&](std::uint64_t n) {
        return ratio(1000.0 * static_cast<double>(n), l1);
    };

    series.add("mem.os_event_us", "us", perCall(s, kOsEvent) / 1000.0);
    series.add("mem.promotions", "count", sum.promotions / cells);
    series.add("mem.splinters", "count", sum.splinters / cells);
    series.add("mem.superpage_coverage", "ratio", coverage_sum / cells);
    series.add("workload.next_ref_ns", "ns", perCall(s, kNextRef));
    series.add("workload.refs_per_kinstr", "count",
               ratio(1000.0 * refs, static_cast<double>(s.instructions)));
    series.add("core.tft_probe_ns", "ns", perCall(s, kTftProbe));
    series.add("core.tft_hit_rate", "ratio",
               ratio(sum.tftHits, sum.tftLookups));
    series.add("core.fast_hit_frac", "ratio", ratio(sum.fastHits, l1));
    series.add("tlb.lookup_ns", "ns", perCall(s, kTlbLookup));
    series.add("tlb.l1_hit_rate", "ratio",
               ratio(s.tlbL1Hits, s.tlbLookups));
    series.add("tlb.walks_per_kref", "count",
               ratio(1000.0 * s.tlbWalks, refs));
    series.add("model.translation_energy_ns", "ns",
               perCall(s, kChargeTranslation));
    series.add("sim.finish_access_ns", "ns", perCall(s, kFinishAccess));
    series.add("cache.l1_access_ns", "ns",
               ratio(replay.l1Ns, replay.l1Accesses));
    series.add("cache.l1_hit_rate", "ratio", ratio(sum.l1Hits, l1));
    series.add("cache.l1_ways_read_avg", "count",
               ratio(replay.l1WaysRead, replay.l1Accesses));
    series.add("cache.outer_access_ns", "ns",
               ratio(replay.outerNs, replay.outerAccesses));
    series.add("cache.l2_per_kref", "count", per_kref(sum.l2Accesses));
    series.add("cache.dram_per_kref", "count", per_kref(sum.dramAccesses));
    series.add("cpu.retire_non_memory_ns", "ns",
               perCall(s, kRetireNonMemory));
    series.add("cpu.squashes_per_kinstr", "count",
               ratio(1000.0 * sum.squashes, sum.instructions));
    series.add("sim.fetch_ns", "ns", perCall(s, kFetch));
    // The coherence layer's per-access call: the synthetic probe
    // stream's tick at 1 core, the fabric's pre/postAccess at more.
    series.add("coherence.access_ns", "ns",
               ratio(s.ns[kProbeTick] + replay.fabricNs,
                     s.calls[kProbeTick] + replay.fabricAccesses));
    series.add("coherence.probes_per_kref", "count", per_kref(sum.probes));
    series.add("coherence.invalidations_per_kref", "count",
               per_kref(sum.probeInvalidations));
    series.add("coherence.owner_supplies_per_kref", "count",
               per_kref(sum.ownerSupplies));
    series.add("sim.warmup_s", "s", s.warmupS);
    series.add("sim.measured_s", "s", s.measuredS);

    double spans_ns = 0.0;
    for (unsigned span = 0; span < kSpanCount; ++span) {
        if (span != kGlue)
            spans_ns += s.ns[span];
    }
    series.add("sim.loop_glue_ns", "ns",
               ratio(s.wallS * 1e9 - spans_ns, refs));
    series.add("trace.coverage", "ratio", ratio(spans_ns, s.wallS * 1e9));
    series.add("trace.overhead", "ratio", ratio(s.wallS, untraced_run_s));
    series.add("trace.clock_ns", "ns", lapCostNs());
}

/** Recorded L1D accesses per traced cell: enough to time the replay,
 *  small enough to keep the buffer modest. */
constexpr std::size_t kRecordCap = 1'000'000;

void
runTracedMode(const WorkloadDef &w, const Options &o, Checker &checker,
              Series &series)
{
    const Clock::time_point start = Clock::now();
    do {
        TraceStats stats;
        ReplayStats replay;
        std::vector<RunResult> traced;
        double untraced_run_s = 0.0;
        double solo_setup_s = 0.0;
        EngineTiming solo;
        for (const CellDef &cell : w.cells) {
            solo = runSolo(w, cell, checker, "untraced");
            untraced_run_s += solo.runS;
            solo_setup_s += solo.setupS;
            TraceStats cell_stats;
            traced.push_back(
                runTraced(w, cell, checker, cell_stats, kRecordCap));
            replay.add(replayCaches(cell.config, cell_stats));
            stats.add(cell_stats);
        }

        // Every workload also runs as a one-pass group (of one cell
        // outside the sweep) and through the runner, which runs a lone
        // cell solo and a group as one pass.
        const EngineTiming one_pass = runOnePass(w, checker);
        const double runner_wall = runRunner(w, checker);
        const EngineTiming &runner_engine =
            w.cells.size() == 1 ? solo : one_pass;

        timeMemorySetup(w, series);
        addLayerMetrics(stats, replay, traced, untraced_run_s, series);
        series.add("sim.onepass_run_speedup", "ratio",
                   ratio(untraced_run_s, one_pass.runS));
        series.add("sim.onepass_setup_saved_s", "s",
                   solo_setup_s - one_pass.setupS);
        series.add("harness.runner_overhead_s", "s",
                   runner_wall - runner_engine.setupS -
                       runner_engine.runS);
    } while (secondsSince(start) < o.seconds);
}

// --- Reference recording --------------------------------------------

void
record(const WorkloadDef &w, const Options &o)
{
    const char *budget = o.quick ? "quick" : "full";
    for (const CellDef &cell : w.cells) {
        const RunResult r = simulate(w.spec, cell.config);
        std::printf("%s %s %s\n", budget, cell.name.c_str(),
                    fingerprint(r).c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    const WorkloadDef w = makeWorkload(
        o.workload, o.seed, o.quick ? Budget::Quick : Budget::Full);
    guardBuild(w);
    if (o.record) {
        if (o.seed != kDefaultSeed)
            usage("--record uses the default seed");
        record(w, o);
        return 0;
    }

    const double load_start = loadAverage();
    const double mops = calibrationMops();

    const bool use_reference = o.seed == kDefaultSeed;
    std::map<std::string, std::string> reference;
    if (use_reference) {
        if (o.reference.empty())
            usage("--reference FILE is needed at the default seed");
        reference =
            loadReference(o.reference, o.quick ? "quick" : "full");
        const auto first = reference.find(w.cells[0].name);
        if (o.perturbReference && first != reference.end()) {
            // Self-test: flip one digit of the first cell's reference.
            std::string &fp = first->second;
            fp[0] = fp[0] == '0' ? '1' : '0';
        }
    }
    Checker checker(std::move(reference), use_reference);
    Series series;
    try {
        if (o.trace)
            runTracedMode(w, o, checker, series);
        else
            runEndToEnd(w, o, checker, series);
    } catch (const std::exception &e) {
        checker.fail(w.name, std::string("exception: ") + e.what());
        return 1;
    }

    printHostContext(o, load_start, loadAverage(), mops);
    series.print(checker);
    return 0;
}

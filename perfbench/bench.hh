/**
 * @file
 * Shared declarations of the end-to-end simulator benchmark
 * (perfbench/README.md): the three workloads, the canonical RunResult
 * fingerprint the output check compares, and the traced run that
 * times each layer's public calls from outside the simulator.
 */

#ifndef SEESAW_PERFBENCH_BENCH_HH
#define SEESAW_PERFBENCH_BENCH_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/sim_engine.hh"

namespace perfbench {

/** The seed the reference fingerprints were recorded with. */
inline constexpr std::uint64_t kDefaultSeed = 1;

/** Instruction budgets: the measured one, or tiny for the self-test. */
enum class Budget : std::uint8_t
{
    Full,
    Quick,
};

/** One named simulation of a workload. */
struct CellDef
{
    std::string name;
    seesaw::SystemConfig config;
};

/**
 * A benchmark workload: one workload spec and the cells it simulates.
 * A sweep runs its cells as one design-space group (one-pass
 * MultiConfigEngine, or the CampaignRunner grouping them); the other
 * workloads have exactly one SimEngine cell.
 */
struct WorkloadDef
{
    std::string name;
    seesaw::WorkloadSpec spec;
    std::vector<CellDef> cells;
    bool sweep = false;
};

/** The benchmark's workload names, in the order the doc lists them. */
const std::vector<std::string> &workloadNames();

/** Build workload @p name from @p seed (fatal if unknown). */
WorkloadDef makeWorkload(const std::string &name, std::uint64_t seed,
                         Budget budget);

/** Byte-exact text of every RunResult field (doubles as hex floats),
 *  from the harness's single list of result fields. */
std::string canonical(const seesaw::RunResult &r);

/** 64-bit FNV-1a of canonical(), as 16 hex digits. */
std::string fingerprint(const seesaw::RunResult &r);

/** Simulated instructions a cell executes: every core's warmup and
 *  measured budget. */
double simulatedInstructions(const seesaw::SystemConfig &config);

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The spans the traced run records, one per public call it times. */
enum Span : unsigned
{
    kNextRef,           //!< CoreComplex::nextRef
    kRetireNonMemory,   //!< CpuModel::retireNonMemory
    kTftProbe,          //!< CoreComplex::probeDataTft
    kTlbLookup,         //!< TlbHierarchy::lookup (activeTlb)
    kChargeTranslation, //!< CoreComplex::chargeTranslation
    kFinishAccess,      //!< CoreComplex::finishMemoryAccess
    kFetch,             //!< CoreComplex::doInstructionFetches
    kProbeTick,         //!< ProbeEngine::tick
    kOsEvent,           //!< promotion/splinter/context switch/fault map
    kMeasurementReset,  //!< resetMeasurement + leakage + collection
    kGlue,              //!< run-loop control between steps
    kSpanCount,
};

/** What one traced run measured. */
struct TraceStats
{
    std::array<double, kSpanCount> ns{};
    std::array<std::uint64_t, kSpanCount> calls{};
    double wallS = 0.0;    //!< traced run(): first step to results
    double warmupS = 0.0;  //!< up to the measurement reset
    double measuredS = 0.0; //!< from the reset to the results
    std::uint64_t refs = 0;
    std::uint64_t instructions = 0; //!< warmup included
    std::uint64_t tlbL1Hits = 0;
    std::uint64_t tlbWalks = 0;
    std::uint64_t tlbLookups = 0;

    /** Recorded L1D accesses, per core, for the cache replay. */
    std::vector<std::vector<seesaw::L1Access>> l1Stream;

    /** Sum @p o's times and counts into this (not its stream). */
    void add(const TraceStats &o);
};

/**
 * Run @p engine's configured budget by stepping its CoreComplexes
 * through the public phase API, timing each call; the RunResult is the
 * one SimEngine::run() would return. Records up to @p record_cap L1D
 * accesses per core into the returned stats.
 */
seesaw::RunResult tracedRun(seesaw::SimEngine &engine,
                            const seesaw::WorkloadSpec &workload,
                            TraceStats &stats, std::size_t record_cap);

/** The host cost of one span boundary (one clock read), which every
 *  span's time includes once. */
double lapCostNs();

/** What replaying a recorded stream through fresh caches measured. */
struct ReplayStats
{
    double l1Ns = 0.0;
    std::uint64_t l1Accesses = 0;
    std::uint64_t l1WaysRead = 0;
    double outerNs = 0.0;
    std::uint64_t outerAccesses = 0;
    double fabricNs = 0.0; //!< preAccess + postAccess spans
    std::uint64_t fabricAccesses = 0;

    void add(const ReplayStats &o);
};

/**
 * Replay @p stats.l1Stream through a fresh L1 of @p config's design
 * per core, and its misses and dirty evictions through a fresh
 * OuterHierarchy. At cores>1, also replay the cores' streams
 * round-robin through fresh caches under a fresh coherence fabric,
 * timing its preAccess/postAccess calls.
 */
ReplayStats replayCaches(const seesaw::SystemConfig &config,
                         const TraceStats &stats);

} // namespace perfbench

#endif // SEESAW_PERFBENCH_BENCH_HH

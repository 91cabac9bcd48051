#include "harness/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <map>
#include <sstream>

#include "common/jobs.hh"
#include "common/logging.hh"
#include "common/thread_annotations.hh"
#include "harness/thread_pool.hh"
#include "sim/multi_config_engine.hh"

namespace seesaw::harness {

namespace {

using Clock = std::chrono::steady_clock;

std::atomic<bool> g_stopRequested{false};

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Serialized progress reporting shared by all workers. */
class Progress
{
  public:
    Progress(const std::string &campaign, std::size_t total,
             bool enabled)
        : campaign_(campaign), total_(total), enabled_(enabled),
          start_(Clock::now())
    {
    }

    void
    cellDone(const std::string &name, double cell_seconds)
        SEESAW_EXCLUDES(mutex_)
    {
        const std::size_t done = ++done_;
        if (!enabled_)
            return;
        const double elapsed = secondsSince(start_);
        const double eta =
            done ? elapsed / done * (total_ - done) : 0.0;
        MutexLock lock(mutex_);
        std::fprintf(stderr,
                     "[%s] %zu/%zu %s (%.2fs) elapsed %.1fs eta %.1fs\n",
                     campaign_.c_str(), done, total_, name.c_str(),
                     cell_seconds, elapsed, eta);
    }

  private:
    const std::string &campaign_;
    const std::size_t total_;
    const bool enabled_;
    const Clock::time_point start_;
    std::atomic<std::size_t> done_{0};
    AnnotatedMutex mutex_; //!< keeps stderr lines whole across workers
};

/**
 * Canonical serialization of a WorkloadSpec. One-pass groups must
 * share the exact spec, not just its name: benches override footprints
 * and fractions under the same workload name. hexfloat keeps doubles
 * exact.
 */
std::string
workloadKey(const WorkloadSpec &w)
{
    std::ostringstream os;
    os << std::hexfloat << w.name << '|' << w.footprintBytes << '|'
       << w.memRefFraction << '|' << w.writeFraction << '|'
       << w.repeatFraction << '|' << w.streamingFraction << '|'
       << w.pointerChaseFraction << '|' << w.conflictFraction << '|'
       << w.chaseRegionStayRefs << '|' << w.chasePoolRegions << '|'
       << w.zipfAlpha << '|' << w.hotSetBytes << '|' << w.threads
       << '|' << w.sharedFraction << '|' << w.thpEligibleFraction
       << '|' << w.systemProbesPerKiloInstr << '|'
       << w.codeFootprintBytes;
    return os.str();
}

} // namespace

std::vector<std::vector<std::size_t>>
planTasks(const std::vector<Cell> &cells, bool one_pass)
{
    std::vector<std::vector<std::size_t>> tasks;
    tasks.reserve(cells.size());
    std::map<std::string, std::size_t> group_of;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!one_pass) {
            tasks.push_back({i});
            continue;
        }
        std::string key = workloadKey(cells[i].workload);
        key += '\x1f';
        key += MultiConfigEngine::frontEndKey(cells[i].config);
        const auto [it, fresh] =
            group_of.try_emplace(std::move(key), tasks.size());
        if (fresh)
            tasks.push_back({i});
        else
            tasks[it->second].push_back(i);
    }
    return tasks;
}

std::vector<CellResult>
runTask(const std::vector<Cell> &cells,
        const std::vector<std::size_t> &members, unsigned replay_threads,
        unsigned *replayed)
{
    std::vector<SystemConfig> configs;
    configs.reserve(members.size());
    for (const std::size_t i : members)
        configs.push_back(cells[i].config);
    const auto start = Clock::now();
    MultiConfigEngine engine(std::move(configs),
                             cells[members[0]].workload, replay_threads);
    std::vector<RunResult> results = engine.run();
    // One pass produced every member's result; report the shared wall
    // time as an even split so per-cell accounting stays meaningful.
    const double wall = secondsSince(start) / members.size();
    if (replayed != nullptr)
        *replayed = engine.replayThreads();

    std::vector<CellResult> out(members.size());
    for (std::size_t k = 0; k < members.size(); ++k) {
        const Cell &cell = cells[members[k]];
        out[k].name = cell.name;
        out[k].workload = cell.workload.name;
        out[k].seed = cell.config.seed;
        out[k].configHash = cell.configHash;
        out[k].wallSeconds = wall;
        out[k].result = std::move(results[k]);
    }
    return out;
}

void
requestStop()
{
    g_stopRequested.store(true, std::memory_order_relaxed);
}

bool
stopRequested()
{
    return g_stopRequested.load(std::memory_order_relaxed);
}

void
clearStopRequest()
{
    g_stopRequested.store(false, std::memory_order_relaxed);
}

void
installStopSignalHandlers()
{
    struct sigaction sa = {};
    sa.sa_handler = [](int) { requestStop(); };
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // no SA_RESTART: let waitpid/sleep see EINTR
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

CampaignRunner::CampaignRunner(RunnerOptions options)
    : options_(std::move(options))
{
}

unsigned
CampaignRunner::effectiveJobs() const
{
    return options_.jobs ? options_.jobs : defaultJobs();
}

CampaignOutcome
CampaignRunner::run(const CampaignSpec &spec) const
{
    return runCells(spec.name(), spec.cells());
}

CampaignOutcome
CampaignRunner::runCells(const std::string &name,
                         const std::vector<Cell> &cells) const
{
    const unsigned jobs = effectiveJobs();

    CampaignOutcome outcome;
    outcome.meta.campaign = name;
    outcome.meta.gitDescribe = gitDescribe();
    outcome.meta.jobs = jobs;
    outcome.totalCells = cells.size();

    std::vector<CellResult> slots(cells.size());
    std::vector<char> ran(cells.size(), 0);

    const auto start = Clock::now();
    Progress progress(name, cells.size(), options_.progress);
    AnnotatedMutex done_mutex; //!< serializes onCellDone across workers

    const std::vector<std::vector<std::size_t>> tasks =
        planTasks(cells, options_.onePass);

    // Each task writes only its own members' pre-sized slots, so
    // result order is the cell order no matter who finishes when.
    std::vector<unsigned> replayed(tasks.size(), 0);
    const auto run_task = [&](std::size_t t, unsigned replay_threads) {
        std::vector<CellResult> results =
            runTask(cells, tasks[t], replay_threads, &replayed[t]);
        for (std::size_t k = 0; k < results.size(); ++k) {
            progress.cellDone(results[k].name, results[k].wallSeconds);
            if (options_.onCellDone) {
                MutexLock lock(done_mutex);
                options_.onCellDone(results[k]);
            }
            slots[tasks[t][k]] = std::move(results[k]);
            ran[tasks[t][k]] = 1;
        }
    };

    // Replay threads per task: tasks run inline hand a one-pass group
    // the whole budget; tasks sharing the pool already use it.
    if (jobs <= 1 || tasks.size() <= 1) {
        for (std::size_t t = 0; t < tasks.size(); ++t) {
            if (stopRequested())
                break;
            run_task(t, jobs);
        }
    } else {
        ThreadPool pool(jobs);
        // A stop request makes not-yet-started tasks no-ops while
        // in-flight cells (or one-pass groups) run to completion.
        for (std::size_t t = 0; t < tasks.size(); ++t) {
            pool.submit([&, t] {
                if (!stopRequested())
                    run_task(t, 1);
            });
        }
        pool.wait();
    }
    for (const unsigned threads : replayed)
        outcome.replayThreads = std::max(outcome.replayThreads, threads);

    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (ran[i])
            outcome.results.push_back(std::move(slots[i]));
    }
    outcome.interrupted = outcome.results.size() < cells.size();
    outcome.meta.wallSeconds = secondsSince(start);
    return outcome;
}

CampaignOutcome
CampaignRunner::runAndWrite(const CampaignSpec &spec,
                            std::string dir) const
{
    CampaignOutcome outcome = run(spec);
    const auto paths =
        writeCampaignSinks(outcome.meta, outcome.results,
                           std::move(dir));
    if (options_.progress) {
        for (const auto &path : paths)
            std::fprintf(stderr, "[%s] wrote %s\n",
                         spec.name().c_str(), path.c_str());
    }
    if (outcome.interrupted) {
        std::fprintf(stderr,
                     "[%s] interrupted after %zu/%zu cells; partial "
                     "sinks flushed (a store-backed campaign is "
                     "resumable with --store DIR --resume)\n",
                     spec.name().c_str(), outcome.results.size(),
                     outcome.totalCells);
    }
    return outcome;
}

const RunResult &
findResult(const std::vector<CellResult> &results,
           const std::string &name)
{
    for (const auto &cell : results) {
        if (cell.name == name)
            return cell.result;
    }
    SEESAW_FATAL("no campaign cell named ", name);
}

} // namespace seesaw::harness

/**
 * @file
 * Executes a campaign's cells across a thread pool. The cells are
 * planned into tasks — one per cell, or with one-pass grouping one per
 * shared front end — and runTask() executes every task, lone cells
 * included, as one fresh MultiConfigEngine pass. Results come back in
 * cell order regardless of completion order, so a parallel run is
 * bit-identical to a serial one. Progress (cells done/total, per-cell
 * wall time, ETA) goes to stderr under a mutex.
 *
 * Interruption is cooperative: requestStop() (or the SIGINT/SIGTERM
 * handlers installed by installStopSignalHandlers()) lets in-flight
 * cells finish, skips cells that have not started, and marks the
 * outcome interrupted so callers can flush partial sinks and point the
 * user at --resume instead of aborting mid-write.
 */

#ifndef SEESAW_HARNESS_RUNNER_HH
#define SEESAW_HARNESS_RUNNER_HH

#include <functional>
#include <vector>

#include "harness/campaign.hh"
#include "harness/sinks.hh"

namespace seesaw::harness {

/** Runner knobs. */
struct RunnerOptions
{
    /** Worker threads; 0 = defaultJobs() (SEESAW_JOBS env, else
     *  hardware_concurrency). 1 runs inline with no pool. Also the
     *  thread budget of a lone task's pass, its recording thread
     *  included, when the plan has a single task (tasks sharing the
     *  pool run on one thread each). */
    unsigned jobs = 0;

    /** Emit per-cell progress lines to stderr. */
    bool progress = true;

    /**
     * Batch compatible cells — same workload and same config-invariant
     * front end (MultiConfigEngine::frontEndKey) — into one-pass
     * multi-config simulations: one trace pass drives all of a group's
     * substrates. Cell names, hashes, results and sink/store bytes are
     * bit-identical to running each cell alone; only wall time
     * changes.
     */
    bool onePass = false;

    /**
     * Called once per completed cell, from whichever worker thread
     * finished it, serialized under a runner-internal mutex. Durable
     * sinks (store::StoreSink) hook in here so every finished cell
     * survives a later crash.
     */
    std::function<void(const CellResult &)> onCellDone;
};

/** What a campaign run produced, plus how it was produced. */
struct CampaignOutcome
{
    CampaignMetadata meta;           //!< ready for the sinks
    std::vector<CellResult> results; //!< completed cells, cell order
    std::size_t totalCells = 0;      //!< cells the campaign asked for
    bool interrupted = false;        //!< stopped before all cells ran
    /** Most threads any task's pass ran on, the recording one
     *  included (0: no task ran). */
    unsigned replayThreads = 0;
};

class CampaignRunner
{
  public:
    explicit CampaignRunner(RunnerOptions options = {});

    /** Run every cell of @p spec; blocks until all complete. */
    CampaignOutcome run(const CampaignSpec &spec) const;

    /**
     * Run an explicit cell list under campaign @p name — the resume
     * path hands in spec.cells() minus the cells a durable store
     * already holds.
     */
    CampaignOutcome runCells(const std::string &name,
                             const std::vector<Cell> &cells) const;

    /** Run @p spec, write JSON+CSV sinks, return the outcome. */
    CampaignOutcome runAndWrite(const CampaignSpec &spec,
                                std::string dir = {}) const;

    /** The worker count run() will use. */
    unsigned effectiveJobs() const;

  private:
    RunnerOptions options_;
};

/**
 * The execution plan for @p cells, as lists of cell indices: one task
 * per cell, or with @p one_pass one task per (workload, front-end key)
 * group, in first-member order.
 */
std::vector<std::vector<std::size_t>>
planTasks(const std::vector<Cell> &cells, bool one_pass);

/**
 * Run one task: the cells @p members indexes in @p cells, which share
 * a front end, as one MultiConfigEngine pass on up to
 * @p replay_threads threads, the recording one included. A lone cell
 * is the one-member case — the engine SimEngine builds. @return one
 * timed CellResult per member, in member order (a group's wall time
 * is split evenly over its members). @p replayed, when given,
 * receives the pass's thread count.
 */
std::vector<CellResult> runTask(const std::vector<Cell> &cells,
                                const std::vector<std::size_t> &members,
                                unsigned replay_threads,
                                unsigned *replayed = nullptr);

/**
 * Find a named cell's RunResult in @p results (fatal if absent) —
 * benches use this to rebuild their tables after a parallel run.
 */
const RunResult &findResult(const std::vector<CellResult> &results,
                            const std::string &name);

/** @name Cooperative shutdown. */
/// @{

/** Ask every CampaignRunner and service worker in this process to
 *  finish in-flight cells and stop claiming new ones.
 *  Async-signal-safe. */
void requestStop();

/** Whether requestStop() has been called. */
bool stopRequested();

/** Reset the stop flag (tests; a fresh campaign after an interrupt). */
void clearStopRequest();

/** Route SIGINT/SIGTERM to requestStop(). Handlers are installed
 *  without SA_RESTART so blocking waits (waitpid) see EINTR and can
 *  re-check the flag. */
void installStopSignalHandlers();

/// @}

} // namespace seesaw::harness

#endif // SEESAW_HARNESS_RUNNER_HH

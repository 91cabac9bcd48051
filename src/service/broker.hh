/**
 * @file
 * The campaign-service broker: prepares a lease queue for a cell
 * list (pre-marking cells a resumed store already holds), spawns and
 * supervises `seesaw_worker` processes, and reassembles a
 * CampaignOutcome from the store once they exit. Specs are built by
 * code, so worker processes rebuild the identical cell list from the
 * same grid arguments and the broker only ships cell indices.
 */

#ifndef SEESAW_SERVICE_BROKER_HH
#define SEESAW_SERVICE_BROKER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "harness/campaign.hh"
#include "harness/runner.hh"

namespace seesaw::service {

/** What prepareQueue() set up. */
struct PreparedQueue
{
    std::string dir;          //!< the queue directory
    std::size_t total = 0;    //!< cells in the campaign
    std::size_t preDone = 0;  //!< pre-marked done (already in store)
};

/**
 * Create the queue for @p campaign under @p storeDir. With @p resume,
 * cells whose (workload, configHash, seed) key the store already
 * holds are pre-marked done so no worker even claims them.
 * @return "" or an error message.
 */
std::string prepareQueue(const std::string &storeDir,
                         const std::string &campaign,
                         const std::vector<harness::Cell> &cells,
                         bool resume, PreparedQueue &out);

/** How worker processes are launched. */
struct WorkerProcessOptions
{
    std::string workerBinary;      //!< path to seesaw_worker
    std::vector<std::string> args; //!< argv tail minus --worker-id
    unsigned workers = 2;          //!< processes to spawn
    bool progress = true;
};

/**
 * Fork/exec @p options.workers worker processes (each gets
 * `--worker-id wN` appended) and wait for all of them. A stop request
 * in the broker (SIGINT/SIGTERM) is forwarded to the children as
 * SIGTERM so they finish their in-flight cell and exit.
 * @return 0 when every worker exited cleanly, else nonzero.
 */
int runWorkerProcesses(const WorkerProcessOptions &options);

/**
 * Rebuild a campaign outcome from the store: one CellResult per cell
 * of @p cells found in the store, in cell order; cells without a
 * record leave the outcome marked interrupted.
 * @return "" or an error message.
 */
std::string collectOutcome(const std::string &storeDir,
                           const std::string &campaign,
                           const std::vector<harness::Cell> &cells,
                           harness::CampaignOutcome &out);

} // namespace seesaw::service

#endif // SEESAW_SERVICE_BROKER_HH

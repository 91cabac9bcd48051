/**
 * @file
 * The body of a `seesaw_worker` process: rebuild the campaign's cell
 * list (every worker must derive the identical list from the same
 * grid arguments — specs are built by code, so processes exchange
 * arguments and cell indices, not cells), then loop claim → run
 * (harness::runTask on the one cell) → upsert → mark done against the
 * store's lease queue until the queue drains or a stop is requested. Cells whose
 * key the store already holds are marked done without running, which
 * is what makes --resume converge.
 */

#ifndef SEESAW_SERVICE_WORKER_HH
#define SEESAW_SERVICE_WORKER_HH

#include <cstddef>
#include <string>

#include "harness/campaign.hh"

namespace seesaw::service {

struct WorkerOptions
{
    std::string storeDir;        //!< result store root
    std::string campaign;        //!< queue name (campaign name)
    std::string workerId;        //!< unique per worker, names segment
    double leaseSeconds = 30.0;  //!< lease expiry interval
    std::size_t maxCells = 0;    //!< stop after N cells (0 = no cap)
    bool progress = true;        //!< per-cell stderr lines
};

/** What one worker did — printed and asserted by tests. */
struct WorkerReport
{
    std::size_t ran = 0;            //!< cells executed and upserted
    std::size_t skippedPresent = 0; //!< already in the store
    bool stopped = false;           //!< exited on a stop request
};

/**
 * Run the claim/run/upsert loop over @p spec's cells. A heartbeat
 * thread keeps the held lease fresh while a cell simulates. Returns
 * when the queue is drained, @c maxCells is reached, or
 * harness::stopRequested() becomes true between cells.
 */
WorkerReport runWorker(const harness::CampaignSpec &spec,
                       const WorkerOptions &options);

} // namespace seesaw::service

#endif // SEESAW_SERVICE_WORKER_HH

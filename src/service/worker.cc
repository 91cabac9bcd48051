#include "service/worker.hh"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <thread>

#include "common/logging.hh"
#include "common/thread_annotations.hh"
#include "harness/runner.hh"
#include "harness/sinks.hh"
#include "service/lease_queue.hh"
#include "store/result_store.hh"
#include "store/store_sink.hh"

namespace seesaw::service {

namespace {

/** Touches the queue's held lease every interval until stopped. */
class HeartbeatThread
{
  public:
    HeartbeatThread(LeaseQueue &queue, double leaseSeconds)
        : queue_(queue),
          interval_(std::chrono::duration<double>(
              leaseSeconds > 0.4 ? leaseSeconds / 4.0 : 0.1))
    {
        thread_ = std::thread([this] { loop(); });
    }

    ~HeartbeatThread()
    {
        {
            MutexLock lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

  private:
    void
    loop() SEESAW_EXCLUDES(mutex_)
    {
        for (;;) {
            {
                MutexLock lock(mutex_);
                if (!stop_)
                    lock.waitFor(cv_, interval_);
                if (stop_)
                    return;
            }
            // Heartbeat with mutex_ released: LeaseQueue::heartbeat()
            // takes the queue's own mutex, and nesting it under ours
            // would put an unrelated lock inside this class's critical
            // section (seesaw-lock-order flags exactly that shape). A
            // spurious early wakeup just touches the lease sooner.
            queue_.heartbeat();
        }
    }

    LeaseQueue &queue_;
    const std::chrono::duration<double> interval_;
    std::thread thread_;
    AnnotatedMutex mutex_;
    std::condition_variable cv_;
    bool stop_ SEESAW_GUARDED_BY(mutex_) = false;
};

} // namespace

WorkerReport
runWorker(const harness::CampaignSpec &spec,
          const WorkerOptions &options)
{
    const std::vector<harness::Cell> cells = spec.cells();

    harness::CampaignMetadata meta;
    meta.campaign = options.campaign.empty() ? spec.name()
                                             : options.campaign;
    meta.gitDescribe = harness::gitDescribe();
    meta.jobs = 1;

    store::StoreSink sink(options.storeDir, meta, options.workerId);

    // One snapshot up front: results that land while we run were
    // produced by live workers whose cells we cannot claim anyway, so
    // a stale view only ever errs toward re-running — which upserts
    // the identical record.
    store::StoreSnapshot snapshot;
    if (std::string error = store::loadStore(options.storeDir,
                                             snapshot);
        !error.empty())
        SEESAW_FATAL("worker ", options.workerId, ": ", error);

    LeaseQueue queue(queueDir(options.storeDir, meta.campaign),
                     options.workerId, options.leaseSeconds);
    SEESAW_ASSERT(queue.totalCells() == cells.size(),
                  "queue was prepared for ", queue.totalCells(),
                  " cells but this worker derived ", cells.size(),
                  " — grid arguments differ from the broker's");
    HeartbeatThread heartbeat(queue, options.leaseSeconds);

    WorkerReport report;
    while (!harness::stopRequested()) {
        if (options.maxCells && report.ran >= options.maxCells)
            return report;
        std::size_t index = 0;
        const LeaseQueue::Claim claim = queue.tryClaim(index);
        if (claim == LeaseQueue::Claim::AllDone)
            return report;
        if (claim == LeaseQueue::Claim::Wait) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
            continue;
        }

        const harness::Cell &cell = cells[index];
        if (snapshot.contains(store::keyOf(cell))) {
            // Resume: the store already has this key's result.
            ++report.skippedPresent;
            queue.markDone(index);
            if (options.progress)
                std::fprintf(stderr, "[%s:%s] skip %s (in store)\n",
                             meta.campaign.c_str(),
                             options.workerId.c_str(),
                             cell.name.c_str());
            continue;
        }

        const harness::CellResult result =
            std::move(harness::runTask(cells, {index}, 1).front());

        // The upsert flushes before the done marker appears, so a
        // crash between the two only re-runs the cell.
        sink.record(result);
        queue.markDone(index);
        ++report.ran;
        if (options.progress)
            std::fprintf(stderr, "[%s:%s] ran %s (%.2fs)\n",
                         meta.campaign.c_str(),
                         options.workerId.c_str(), cell.name.c_str(),
                         result.wallSeconds);
    }
    queue.release();
    report.stopped = true;
    return report;
}

} // namespace seesaw::service

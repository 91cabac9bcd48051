/**
 * @file
 * End-to-end campaign-service tests, in-process: a campaign of tiny
 * real simulations runs to completion, gets "killed" partway (cell
 * budget), resumes, and races two workers — and every route must
 * converge on a byte-identical canonical store dump. The store's
 * history (one segment record per execution until a compaction)
 * proves resume actually skips completed work instead of silently
 * re-running it.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>

#include "harness/runner.hh"
#include "service/broker.hh"
#include "service/lease_queue.hh"
#include "service/worker.hh"
#include "store/result_store.hh"
#include "store/store_sink.hh"

namespace fs = std::filesystem;

namespace seesaw::service {
namespace {

constexpr std::size_t kCells = 5;

class TempDir
{
  public:
    TempDir()
    {
        std::string templ =
            (fs::temp_directory_path() / "seesaw-svc-XXXXXX")
                .string();
        dir_ = ::mkdtemp(templ.data());
        EXPECT_FALSE(dir_.empty());
    }

    ~TempDir() { fs::remove_all(dir_); }

    const std::string &dir() const { return dir_; }

  private:
    std::string dir_;
};

constexpr std::uint64_t kInstructions = 3000;

/** kCells tiny real cells, one per paper workload: a few thousand
 *  instructions (cell i runs kInstructions + i) on 64MB of memory. */
harness::CampaignSpec
makeSpec()
{
    harness::CampaignSpec spec("svc");
    for (std::size_t i = 0; i < kCells; ++i) {
        WorkloadSpec w = paperWorkloads()[i];
        w.footprintBytes = 8ULL << 20;
        w.hotSetBytes = 1ULL << 20;
        SystemConfig cfg;
        cfg.instructions = kInstructions + i;
        cfg.warmupInstructions = 1000;
        cfg.os.memBytes = 64ULL << 20;
        spec.cell(w.name + "/unit", w, cfg);
    }
    return spec;
}

/** Cell executions recorded in @p storeDir: every run appends one
 *  segment record, superseded or not, until a compaction. */
std::size_t
executions(const std::string &storeDir)
{
    store::StoreSnapshot snap;
    EXPECT_EQ(store::loadStore(storeDir, snap), "");
    return snap.history.size();
}

std::string
dumpOf(const std::string &storeDir)
{
    store::StoreSnapshot snap;
    EXPECT_EQ(store::loadStore(storeDir, snap), "");
    std::ostringstream os;
    store::canonicalDump(os, snap);
    return os.str();
}

WorkerOptions
workerOptions(const std::string &storeDir, const std::string &id)
{
    WorkerOptions options;
    options.storeDir = storeDir;
    options.campaign = "svc";
    options.workerId = id;
    options.progress = false;
    return options;
}

TEST(Service, KillAndResumeConvergesOnTheUninterruptedRun)
{
    const harness::CampaignSpec spec = makeSpec();
    const auto cells = spec.cells();

    // Reference: one worker drains the whole queue in one go.
    TempDir serial;
    PreparedQueue queue;
    ASSERT_EQ(prepareQueue(serial.dir(), "svc", cells, false, queue),
              "");
    EXPECT_EQ(queue.total, kCells);
    EXPECT_EQ(queue.preDone, 0u);
    WorkerReport report =
        runWorker(spec, workerOptions(serial.dir(), "w0"));
    EXPECT_EQ(report.ran, kCells);
    EXPECT_EQ(report.skippedPresent, 0u);
    EXPECT_FALSE(report.stopped);
    EXPECT_EQ(executions(serial.dir()), kCells);

    // "Killed" run: the worker dies after two cells (cell budget
    // stands in for SIGKILL — same observable store state).
    TempDir killed;
    ASSERT_EQ(prepareQueue(killed.dir(), "svc", cells, false, queue),
              "");
    WorkerOptions budget = workerOptions(killed.dir(), "w0");
    budget.maxCells = 2;
    report = runWorker(spec, budget);
    EXPECT_EQ(report.ran, 2u);
    EXPECT_NE(dumpOf(killed.dir()), dumpOf(serial.dir()));

    // Resume: the queue is rebuilt and the two finished cells are
    // pre-marked done, so the worker runs exactly the missing three.
    ASSERT_EQ(prepareQueue(killed.dir(), "svc", cells, true, queue),
              "");
    EXPECT_EQ(queue.preDone, 2u);
    const std::size_t runsBefore = executions(killed.dir());
    report = runWorker(spec, workerOptions(killed.dir(), "w1"));
    EXPECT_EQ(report.ran, kCells - 2);
    EXPECT_EQ(report.skippedPresent, 0u);
    EXPECT_EQ(executions(killed.dir()), runsBefore + (kCells - 2));

    EXPECT_EQ(dumpOf(killed.dir()), dumpOf(serial.dir()));
}

TEST(Service, WorkerSkipsCellsTheStoreAlreadyHolds)
{
    const harness::CampaignSpec spec = makeSpec();
    const auto cells = spec.cells();

    TempDir store;
    PreparedQueue queue;
    ASSERT_EQ(prepareQueue(store.dir(), "svc", cells, false, queue),
              "");
    WorkerOptions budget = workerOptions(store.dir(), "w0");
    budget.maxCells = 2;
    ASSERT_EQ(runWorker(spec, budget).ran, 2u);

    // A fresh queue with no resume pre-marking: the worker claims
    // every cell but provably skips the two already in the store —
    // the counters, not just the dump, prove no re-execution.
    ASSERT_EQ(prepareQueue(store.dir(), "svc", cells, false, queue),
              "");
    const std::size_t runsBefore = executions(store.dir());
    const WorkerReport report =
        runWorker(spec, workerOptions(store.dir(), "w1"));
    EXPECT_EQ(report.skippedPresent, 2u);
    EXPECT_EQ(report.ran, kCells - 2);
    EXPECT_EQ(executions(store.dir()), runsBefore + (kCells - 2));
}

TEST(Service, TwoConcurrentWorkersPartitionTheQueue)
{
    const harness::CampaignSpec spec = makeSpec();
    const auto cells = spec.cells();

    TempDir store;
    PreparedQueue queue;
    ASSERT_EQ(prepareQueue(store.dir(), "svc", cells, false, queue),
              "");
    WorkerReport a, b;
    std::thread ta(
        [&] { a = runWorker(spec, workerOptions(store.dir(), "wa")); });
    std::thread tb(
        [&] { b = runWorker(spec, workerOptions(store.dir(), "wb")); });
    ta.join();
    tb.join();

    // Leases make the split exclusive and exhaustive.
    EXPECT_EQ(a.ran + b.ran, kCells);
    EXPECT_EQ(executions(store.dir()), kCells);

    TempDir serial;
    ASSERT_EQ(prepareQueue(serial.dir(), "svc", cells, false, queue),
              "");
    runWorker(spec, workerOptions(serial.dir(), "w0"));
    EXPECT_EQ(dumpOf(store.dir()), dumpOf(serial.dir()));
}

TEST(Service, ThreadPathAndWorkerPathProduceIdenticalStores)
{
    // The --store --jobs path (runCells + StoreSink hook) and the
    // --workers path (lease queue) must agree byte-for-byte.
    const harness::CampaignSpec spec = makeSpec();
    const auto cells = spec.cells();

    TempDir threaded;
    {
        harness::CampaignMetadata meta;
        meta.campaign = "svc";
        meta.gitDescribe = "unit";
        meta.jobs = 2;
        store::StoreSink sink(threaded.dir(), meta, "driver");
        harness::RunnerOptions options;
        options.jobs = 2;
        options.progress = false;
        options.onCellDone = sink.hook();
        const auto outcome =
            harness::CampaignRunner(options).runCells("svc", cells);
        EXPECT_EQ(outcome.results.size(), kCells);
        EXPECT_FALSE(outcome.interrupted);
        EXPECT_EQ(sink.recorded(), kCells);
    }

    TempDir queued;
    PreparedQueue queue;
    ASSERT_EQ(prepareQueue(queued.dir(), "svc", cells, false, queue),
              "");
    runWorker(spec, workerOptions(queued.dir(), "w0"));

    EXPECT_EQ(dumpOf(threaded.dir()), dumpOf(queued.dir()));

    // And the broker reassembles the same results in cell order.
    harness::CampaignOutcome outcome;
    ASSERT_EQ(collectOutcome(queued.dir(), "svc", cells, outcome),
              "");
    ASSERT_EQ(outcome.results.size(), kCells);
    EXPECT_FALSE(outcome.interrupted);
    for (std::size_t i = 0; i < kCells; ++i) {
        EXPECT_EQ(outcome.results[i].name, cells[i].name);
        EXPECT_EQ(outcome.results[i].result.instructions,
                  kInstructions + i);
    }
}

TEST(Service, StopRequestEndsTheWorkerLoopBetweenCells)
{
    const harness::CampaignSpec spec = makeSpec();
    const auto cells = spec.cells();

    TempDir store;
    PreparedQueue queue;
    ASSERT_EQ(prepareQueue(store.dir(), "svc", cells, false, queue),
              "");
    harness::requestStop();
    const WorkerReport report =
        runWorker(spec, workerOptions(store.dir(), "w0"));
    harness::clearStopRequest();
    EXPECT_TRUE(report.stopped);
    EXPECT_EQ(report.ran, 0u);
    EXPECT_EQ(executions(store.dir()), 0u);

    // The interrupted store resumes cleanly afterwards.
    ASSERT_EQ(prepareQueue(store.dir(), "svc", cells, true, queue),
              "");
    EXPECT_EQ(queue.preDone, 0u);
    EXPECT_EQ(runWorker(spec, workerOptions(store.dir(), "w0")).ran,
              kCells);
}

} // namespace
} // namespace seesaw::service

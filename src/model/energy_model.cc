#include "model/energy_model.hh"

namespace seesaw {

EnergyModel::EnergyModel(const SramModel &sram, EnergyParams params)
    : sram_(sram), params_(params)
{
    // Size the memo once so the per-access path never allocates for
    // L1s up to kMemoAssoc ways (wider ones allocate on first use).
    // That path may run on a one-pass replay thread, whose first
    // allocation would give it a malloc arena of its own.
    for (L1LookupMemo &memo : memo_)
        memo.byWaysRead.reserve(kMemoAssoc + 1);
}

double
EnergyModel::l1LookupNj(std::uint64_t size_bytes, unsigned assoc,
                        unsigned ways_read)
{
    L1LookupMemo *memo = nullptr;
    for (auto &m : memo_) {
        if (m.sizeBytes == size_bytes && m.assoc == assoc) {
            memo = &m;
            break;
        }
    }
    if (!memo) {
        // Claim a slot for this geometry (evicting the older one).
        memo = &memo_[memo_[0].sizeBytes == 0 ? 0 : 1];
        memo->sizeBytes = size_bytes;
        memo->assoc = assoc;
        // Lazily filled: not every ways_read value is legal for the
        // SRAM model (partition slices must keep power-of-two ways),
        // so only the values the simulation actually produces are
        // ever evaluated.
        memo->byWaysRead.assign(assoc + 1, -1.0);
    }
    // ways_read beyond the associativity means repeated set accesses
    // (e.g., a SIPT mispeculation replaying at the correct index).
    double nj = 0.0;
    while (ways_read > assoc) {
        if (memo->byWaysRead[assoc] < 0.0) {
            memo->byWaysRead[assoc] =
                sram_.lookupEnergyNj(size_bytes, assoc, assoc);
        }
        nj += memo->byWaysRead[assoc];
        ways_read -= assoc;
    }
    if (memo->byWaysRead[ways_read] < 0.0) {
        memo->byWaysRead[ways_read] =
            sram_.lookupEnergyNj(size_bytes, assoc, ways_read);
    }
    return nj + memo->byWaysRead[ways_read];
}

void
EnergyModel::addL1Lookup(std::uint64_t size_bytes, unsigned assoc,
                         unsigned ways_read, bool coherent)
{
    const double nj = l1LookupNj(size_bytes, assoc, ways_read);
    if (coherent)
        l1CoherenceDynamicNj_ += nj;
    else
        l1CpuDynamicNj_ += nj;
}

void
EnergyModel::addLineInstall(unsigned ways_tracked)
{
    l1CpuDynamicNj_ += params_.lineInstallPerWayNj * ways_tracked;
}

void
EnergyModel::addL2Access()
{
    outerNj_ += params_.l2AccessNj;
}

void
EnergyModel::addLlcAccess()
{
    outerNj_ += params_.llcAccessNj;
}

void
EnergyModel::addDramAccess()
{
    outerNj_ += params_.dramAccessNj;
}

void
EnergyModel::addL1TlbLookup()
{
    translationNj_ += params_.l1TlbLookupNj;
}

void
EnergyModel::addL2TlbLookup()
{
    translationNj_ += params_.l2TlbLookupNj;
}

void
EnergyModel::addTftLookup()
{
    translationNj_ += params_.tftLookupNj;
}

void
EnergyModel::addWayPredictorLookup()
{
    translationNj_ += params_.wayPredictorLookupNj;
}

void
EnergyModel::addPageWalk()
{
    translationNj_ += params_.pageWalkNj;
}

void
EnergyModel::addL1Leakage(std::uint64_t size_bytes, std::uint64_t cycles,
                          double freq_ghz)
{
    // power (mW) * time (ns) = pJ; convert to nJ.
    const double ns = static_cast<double>(cycles) / freq_ghz;
    l1LeakageNj_ += sram_.leakagePowerMw(size_bytes) * ns * 1e-3;
}

void
EnergyModel::addBackground(std::uint64_t cycles, double freq_ghz)
{
    const double ns = static_cast<double>(cycles) / freq_ghz;
    outerNj_ += params_.backgroundPowerMw * ns * 1e-3;
}

double
EnergyModel::totalNj() const
{
    return l1CpuDynamicNj_ + l1CoherenceDynamicNj_ + l1LeakageNj_ +
           outerNj_ + translationNj_;
}

void
EnergyModel::reset()
{
    l1CpuDynamicNj_ = 0.0;
    l1CoherenceDynamicNj_ = 0.0;
    l1LeakageNj_ = 0.0;
    outerNj_ = 0.0;
    translationNj_ = 0.0;
}

} // namespace seesaw

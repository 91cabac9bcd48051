#include "coherence/probe_engine.hh"

namespace seesaw {

ProbeEngine::ProbeEngine(const ProbeEngineParams &params, L1Cache &l1,
                         EnergyModel &energy)
    : params_(params), l1_(l1), energy_(energy),
      bus_(params.fabric, params.snoopAbsentFactor, params.seed),
      stats_("probe_engine"),
      stProbes_(&stats_.scalar("probes")),
      stProbeHits_(&stats_.scalar("probe_hits")),
      stInvalidations_(&stats_.scalar("invalidations")),
      stDirtySupplies_(&stats_.scalar("dirty_supplies"))
{
    directedRate_ = params_.systemProbesPerKiloInstr +
                    params_.sharingProbesPerKiloInstrPerThread *
                        params_.remoteThreads * params_.sharedFraction;
    // Ticks rarely see more than a few probes: sized here, the buffer
    // does not grow on the per-access path, which may run on a
    // one-pass replay thread.
    probeBuf_.reserve(64);
}

void
ProbeEngine::tick(std::uint64_t instructions)
{
    directedCarry_ +=
        directedRate_ * static_cast<double>(instructions) / 1000.0;
    if (directedCarry_ < 1.0)
        return;

    const auto due = static_cast<unsigned>(directedCarry_);
    directedCarry_ -= due;

    bus_.generate(due, params_.invalidatingFraction, resident_,
                  probeBuf_);
    for (const auto &p : probeBuf_) {
        const L1ProbeResult res = l1_.probe(p.pa, p.invalidating);
        ++*stProbes_;
        if (res.hit)
            ++*stProbeHits_;
        if (p.invalidating && res.hit)
            ++*stInvalidations_;
        if (res.wasDirty)
            ++*stDirtySupplies_;
        energy_.addL1Lookup(l1_.tags().sizeBytes(), l1_.tags().assoc(),
                            res.waysRead, /*coherent=*/true);
    }
}

} // namespace seesaw

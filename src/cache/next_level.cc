#include "cache/next_level.hh"

#include <cmath>

#include "common/logging.hh"

namespace seesaw {

namespace {

unsigned
toCycles(double ns, double freq_ghz)
{
    return static_cast<unsigned>(std::ceil(ns * freq_ghz - 1e-9));
}

} // namespace

OuterHierarchy::OuterHierarchy(const OuterHierarchyParams &params,
                               double freq_ghz,
                               SetAssocCache *shared_llc)
    : l2_(params.l2SizeBytes, params.l2Assoc),
      llc_(shared_llc),
      l2Cycles_(toCycles(params.l2LatencyNs, freq_ghz)),
      llcCycles_(toCycles(params.llcLatencyNs, freq_ghz)),
      dramCycles_(toCycles(params.dramLatencyNs, freq_ghz)),
      stats_("outer"),
      stL2Accesses_(&stats_.scalar("l2_accesses")),
      stL2Hits_(&stats_.scalar("l2_hits")),
      stLlcAccesses_(&stats_.scalar("llc_accesses")),
      stLlcHits_(&stats_.scalar("llc_hits")),
      stDramAccesses_(&stats_.scalar("dram_accesses")),
      stL1Writebacks_(&stats_.scalar("l1_writebacks"))
{
    SEESAW_ASSERT(freq_ghz > 0.0, "bad frequency");
    if (!llc_)
        llc_ = &ownLlc_.emplace(params.llcSizeBytes, params.llcAssoc);
}

OuterAccessResult
OuterHierarchy::access(Addr pa, AccessType type)
{
    OuterAccessResult res;
    const auto fill_state = type == AccessType::Write
                                ? CoherenceState::Modified
                                : CoherenceState::Exclusive;

    ++*stL2Accesses_;
    res.cycles = l2Cycles_;
    if (l2_.lookup(pa).hit) {
        ++*stL2Hits_;
        res.level = HitLevel::L2;
        return res;
    }

    ++*stLlcAccesses_;
    res.llcAccessed = true;
    res.cycles += llcCycles_;
    if (llc_->lookup(pa).hit) {
        ++*stLlcHits_;
        res.level = HitLevel::LLC;
        l2_.insert(pa, SetAssocCache::InsertScope::FullSet, fill_state,
                   PageSize::Base4KB);
        return res;
    }

    ++*stDramAccesses_;
    res.dramAccessed = true;
    res.cycles += dramCycles_;
    res.level = HitLevel::Dram;
    llc_->insert(pa, SetAssocCache::InsertScope::FullSet, fill_state,
                PageSize::Base4KB);
    l2_.insert(pa, SetAssocCache::InsertScope::FullSet, fill_state,
               PageSize::Base4KB);
    return res;
}

void
OuterHierarchy::prefill(Addr pa)
{
    if (!llc_->peek(pa).hit) {
        llc_->insert(pa, SetAssocCache::InsertScope::FullSet,
                    CoherenceState::Exclusive, PageSize::Base4KB);
    }
}

void
OuterHierarchy::writeback(Addr pa)
{
    ++*stL1Writebacks_;
    // Write-allocate into the L2; dirty data propagates lazily.
    if (!l2_.lookup(pa).hit) {
        l2_.insert(pa, SetAssocCache::InsertScope::FullSet,
                   CoherenceState::Modified, PageSize::Base4KB);
    }
}

} // namespace seesaw

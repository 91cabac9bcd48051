/**
 * @file
 * The memhog fragmentation microbenchmark (Section III-C).
 *
 * memhog performs random memory allocations to fragment physical
 * memory, as used by many prior virtual-memory studies. Our model
 * allocates an over-committed set of 4KB frames, then releases a
 * random-length run-structured subset, leaving the retained fraction
 * scattered across page-blocks. A small fraction of retained frames is
 * pinned (unmovable), defeating compaction for the blocks they sit in.
 */

#ifndef SEESAW_MEM_MEMHOG_HH
#define SEESAW_MEM_MEMHOG_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "mem/os_memory_manager.hh"

namespace seesaw {

/** Tuning knobs of the fragmentation model. */
struct MemhogParams
{
    /** Overcommit multiplier: allocate keep*(1+churn), free churn part. */
    double churn = 1.0;

    /** Probability a retained frame is pinned (unmovable). */
    double pinnedProbability = 0.03;

    /** Mean length (frames) of the contiguous runs memhog frees;
     *  shorter runs fragment harder. */
    double meanFreeRunLength = 48.0;

    std::uint64_t seed = 0x90091e5;
};

/**
 * Drives an OsMemoryManager's raw-frame interface to consume and
 * fragment a target fraction of physical memory.
 */
class Memhog
{
  public:
    Memhog(OsMemoryManager &os, MemhogParams params = {});

    /**
     * Consume @p fraction of total physical memory, fragmenting it in
     * the process. memhog(0.4) matches the paper's "memhog (40%)".
     * May be called once per instance.
     */
    void consume(double fraction);

    /**
     * Release every held frame, pinned ones included. The frame list
     * goes stale once compaction migrates a held movable frame, so this
     * is only valid before any allocation that may compact; no
     * simulated path calls it.
     */
    void release();

    /** Frames currently held (including pinned). */
    std::uint64_t heldFrames() const { return held_.size(); }

  private:
    OsMemoryManager &os_;
    MemhogParams params_;
    Rng rng_;
    std::vector<std::uint64_t> held_;
    bool consumed_ = false;
};

} // namespace seesaw

#endif // SEESAW_MEM_MEMHOG_HH

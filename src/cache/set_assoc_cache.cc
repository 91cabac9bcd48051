#include "cache/set_assoc_cache.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace seesaw {

SetAssocCache::SetAssocCache(std::uint64_t size_bytes, unsigned assoc,
                             unsigned line_bytes,
                             unsigned num_partitions,
                             ReplacementParams replacement)
    : assoc_(assoc), lineBytes_(line_bytes),
      numPartitions_(num_partitions)
{
    SEESAW_ASSERT(isPowerOfTwo(assoc_), "assoc must be a power of two");
    SEESAW_ASSERT(isPowerOfTwo(lineBytes_),
                  "line size must be a power of two");
    SEESAW_ASSERT(isPowerOfTwo(numPartitions_) &&
                      assoc_ % numPartitions_ == 0,
                  "partitions must evenly divide the ways");
    waysPerPartition_ = assoc_ / numPartitions_;
    lineBits_ = log2Floor(lineBytes_);

    const std::uint64_t lines = size_bytes / lineBytes_;
    SEESAW_ASSERT(lines % assoc_ == 0 && lines > 0, "bad geometry");
    numSets_ = static_cast<unsigned>(lines / assoc_);
    // Power-of-two set counts index by bit slicing (required for the
    // VIPT/SEESAW partition-bit layout); other counts (e.g., a 24MB
    // LLC) fall back to modulo indexing and cannot be partitioned.
    powerOfTwoSets_ = isPowerOfTwo(numSets_);
    SEESAW_ASSERT(powerOfTwoSets_ || numPartitions_ == 1,
                  "partitioned caches need power-of-two sets");
    setBits_ = powerOfTwoSets_ ? log2Floor(numSets_) : 0;
    partitionBits_ = log2Floor(numPartitions_);

    lines_.resize(static_cast<std::size_t>(numSets_) * assoc_);
    policy_.emplace(replacement, numSets_, assoc_);
}

unsigned
SetAssocCache::setIndex(Addr addr) const
{
    if (!powerOfTwoSets_)
        return static_cast<unsigned>((addr >> lineBits_) % numSets_);
    return static_cast<unsigned>(
        bits(addr, lineBits_ + setBits_ - 1, lineBits_));
}

unsigned
SetAssocCache::partitionIndex(Addr addr) const
{
    if (numPartitions_ == 1)
        return 0;
    const unsigned lo = lineBits_ + setBits_;
    return static_cast<unsigned>(bits(addr, lo + partitionBits_ - 1, lo));
}

TagLookup
SetAssocCache::searchRange(Addr line_addr, unsigned set, unsigned begin,
                           unsigned end, bool touch)
{
    const std::size_t slot0 = static_cast<std::size_t>(set) * assoc_;
    CacheLine *base = &lines_[slot0];
    for (unsigned way = begin; way < end; ++way) {
        if (base[way].valid && base[way].lineAddr == line_addr) {
            TagLookup res{true, false, way};
            if (touch) {
                policy_->touchAt(slot0 + way);
                if (base[way].prefetched) {
                    res.wasPrefetched = true;
                    base[way].prefetched = false;
                }
            }
            return res;
        }
    }
    return TagLookup{false, false, 0};
}

TagLookup
SetAssocCache::lookup(Addr pa)
{
    return searchRange(lineAddrOf(pa), setIndex(pa), 0, assoc_, true);
}

TagLookup
SetAssocCache::lookupPartition(Addr pa, unsigned partition)
{
    SEESAW_ASSERT(partition < numPartitions_, "partition out of range");
    const unsigned begin = partitionBase(partition);
    return searchRange(lineAddrOf(pa), setIndex(pa), begin,
                       begin + waysPerPartition(), true);
}

TagLookup
SetAssocCache::peek(Addr pa) const
{
    const Addr line_addr = pa >> lineBits_;
    const unsigned set = setIndex(pa);
    const CacheLine *base = setBase(set);
    for (unsigned way = 0; way < assoc_; ++way) {
        if (base[way].valid && base[way].lineAddr == line_addr)
            return TagLookup{true, false, way};
    }
    return TagLookup{false, false, 0};
}

Eviction
SetAssocCache::insert(Addr pa, InsertScope scope, CoherenceState state,
                      PageSize page_size, bool prefetched)
{
    const unsigned set = setIndex(pa);
    CacheLine *base = setBase(set);

    unsigned begin = 0, end = assoc_;
    if (scope == InsertScope::Partition) {
        begin = partitionBase(partitionIndex(pa));
        end = begin + waysPerPartition();
    }

    const unsigned victim = policy_->victim(set, begin, end);
    Eviction ev;
    if (base[victim].valid) {
        ev.valid = true;
        ev.lineAddr = base[victim].lineAddr;
        ev.state = base[victim].state;
        ev.pageSize = base[victim].pageSize;
        ev.prefetched = base[victim].prefetched;
    }

    base[victim].valid = true;
    base[victim].lineAddr = lineAddrOf(pa);
    base[victim].state = state;
    base[victim].prefetched = prefetched;
    base[victim].pageSize = page_size;
    policy_->fill(set, victim);
    return ev;
}

std::optional<CoherenceState>
SetAssocCache::invalidate(Addr pa)
{
    const unsigned set = setIndex(pa);
    CacheLine *base = setBase(set);
    const Addr line_addr = lineAddrOf(pa);
    for (unsigned way = 0; way < assoc_; ++way) {
        if (base[way].valid && base[way].lineAddr == line_addr) {
            const CoherenceState prev = base[way].state;
            base[way].valid = false;
            base[way].state = CoherenceState::Invalid;
            base[way].prefetched = false;
            policy_->invalidate(set, way);
            return prev;
        }
    }
    return std::nullopt;
}

CacheLine *
SetAssocCache::findLine(Addr pa)
{
    const Addr line_addr = lineAddrOf(pa);
    CacheLine *base = setBase(setIndex(pa));
    for (unsigned way = 0; way < assoc_; ++way) {
        if (base[way].valid && base[way].lineAddr == line_addr)
            return &base[way];
    }
    return nullptr;
}

const CacheLine *
SetAssocCache::findLine(Addr pa) const
{
    const Addr line_addr = pa >> lineBits_;
    const CacheLine *base = setBase(setIndex(pa));
    for (unsigned way = 0; way < assoc_; ++way) {
        if (base[way].valid && base[way].lineAddr == line_addr)
            return &base[way];
    }
    return nullptr;
}

unsigned
SetAssocCache::sweepRegion(Addr pa_base, std::uint64_t bytes)
{
    const Addr lo = pa_base >> lineBits_;
    const Addr hi = (pa_base + bytes) >> lineBits_;
    unsigned evicted = 0;
    for (unsigned set = 0; set < numSets_; ++set) {
        CacheLine *base = setBase(set);
        for (unsigned way = 0; way < assoc_; ++way) {
            CacheLine &line = base[way];
            if (line.valid && line.lineAddr >= lo &&
                line.lineAddr < hi) {
                line.valid = false;
                line.state = CoherenceState::Invalid;
                line.prefetched = false;
                policy_->invalidate(set, way);
                ++evicted;
            }
        }
    }
    return evicted;
}

void
SetAssocCache::forEachValidLine(
    const std::function<void(const CacheLine &)> &fn) const
{
    for (const auto &line : lines_) {
        if (line.valid)
            fn(line);
    }
}

unsigned
SetAssocCache::validLines() const
{
    unsigned count = 0;
    for (const auto &line : lines_)
        count += line.valid ? 1 : 0;
    return count;
}

bool
SetAssocCache::checkPlacementInvariant() const
{
    for (unsigned set = 0; set < numSets_; ++set) {
        const CacheLine *base = setBase(set);
        for (unsigned way = 0; way < assoc_; ++way) {
            if (!base[way].valid)
                continue;
            const Addr pa = base[way].lineAddr << lineBits_;
            if (partitionIndex(pa) != way / waysPerPartition())
                return false;
        }
    }
    return true;
}

} // namespace seesaw

#include "harness/campaign.hh"

#include <set>
#include <type_traits>

#include "common/logging.hh"

namespace seesaw::harness {

namespace {

/** Incremental FNV-1a over the raw bytes of trivially-copyable data. */
class Fnv1a
{
  public:
    template <typename T>
    void mix(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const auto *bytes = reinterpret_cast<const unsigned char *>(
            &value);
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            hash_ ^= bytes[i];
            hash_ *= 0x100000001b3ULL;
        }
    }

    void mix(const std::string &value)
    {
        for (const char c : value)
            mix(c);
        mix(value.size());
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

} // namespace

std::uint64_t
configHash(const SystemConfig &config)
{
    Fnv1a h;
    h.mix(config.coreKind);
    h.mix(config.l1Kind);
    h.mix(config.l1SizeBytes);
    h.mix(config.l1Assoc);
    h.mix(config.partitionWays);
    h.mix(config.freqGhz);
    h.mix(config.policy);
    h.mix(config.tftEntries);
    h.mix(config.tftAssoc);
    h.mix(config.unifiedL1Tlb);
    h.mix(config.unifiedL1TlbEntries);
    h.mix(config.replacement.kind);
    h.mix(config.replacement.rripBits);
    h.mix(config.replacement.seed);
    h.mix(config.prefetch.kind);
    h.mix(config.prefetch.degree);
    h.mix(config.prefetch.tableEntries);
    h.mix(config.piptTlbCycles);
    h.mix(config.siptAssoc);
    h.mix(config.os.memBytes);
    h.mix(config.os.thpEnabled);
    h.mix(config.os.kernelReservedFraction);
    h.mix(config.os.pollutedRegionFraction);
    h.mix(config.os.compactionCandidates);
    h.mix(config.os.compactionBudgetPages);
    h.mix(config.os.compactionMaxAttempts);
    h.mix(config.os.seed);
    h.mix(config.memhog.churn);
    h.mix(config.memhog.pinnedProbability);
    h.mix(config.memhog.meanFreeRunLength);
    h.mix(config.memhog.seed);
    h.mix(config.memhogFraction);
    h.mix(config.outer.l2SizeBytes);
    h.mix(config.outer.l2Assoc);
    h.mix(config.outer.l2LatencyNs);
    h.mix(config.outer.llcSizeBytes);
    h.mix(config.outer.llcAssoc);
    h.mix(config.outer.llcLatencyNs);
    h.mix(config.outer.dramLatencyNs);
    h.mix(config.cores);
    h.mix(config.fabric);
    h.mix(config.instructions);
    h.mix(config.warmupInstructions);
    h.mix(config.seed);
    h.mix(config.schedulerCounterPolicy);
    h.mix(config.contextSwitchInterval);
    h.mix(config.promotionInterval);
    h.mix(config.splinterInterval);
    h.mix(config.shootdownCycles);
    h.mix(config.modelInstructionCache);
    h.mix(config.icacheKind);
    h.mix(config.codeThpEligibleFraction);
    h.mix(config.useOneGbHeap);
    h.mix(config.tracePath);
    h.mix(config.audit.mode);
    h.mix(config.audit.periodEvents);
    return h.value();
}

CampaignSpec::CampaignSpec(std::string name) : name_(std::move(name))
{
    SEESAW_ASSERT(!name_.empty(), "campaign needs a name");
}

CampaignSpec &
CampaignSpec::workload(const WorkloadSpec &w)
{
    workloads_.push_back(w);
    return *this;
}

CampaignSpec &
CampaignSpec::workloads(const std::vector<WorkloadSpec> &ws)
{
    workloads_.insert(workloads_.end(), ws.begin(), ws.end());
    return *this;
}

CampaignSpec &
CampaignSpec::variant(std::string label, SystemConfig config)
{
    SEESAW_ASSERT(!label.empty(), "variant needs a label");
    variants_.emplace_back(std::move(label), std::move(config));
    return *this;
}

CampaignSpec &
CampaignSpec::seeds(std::vector<std::uint64_t> seeds)
{
    SEESAW_ASSERT(!seeds.empty(), "campaign needs at least one seed");
    seeds_ = std::move(seeds);
    return *this;
}

CampaignSpec &
CampaignSpec::cell(std::string name, const WorkloadSpec &workload,
                   const SystemConfig &config)
{
    explicit_.push_back(
        Cell{std::move(name), workload, config, configHash(config)});
    return *this;
}

std::vector<Cell>
CampaignSpec::cells() const
{
    std::vector<Cell> out;
    out.reserve(workloads_.size() * variants_.size() * seeds_.size() +
                explicit_.size());
    for (const auto &w : workloads_) {
        for (const auto &[label, config] : variants_) {
            for (const std::uint64_t seed : seeds_) {
                std::string name = w.name + "/" + label;
                if (seeds_.size() > 1)
                    name += "/s" + std::to_string(seed);
                SystemConfig seeded = config;
                seeded.seed = seed;
                const std::uint64_t hash = configHash(seeded);
                out.push_back(Cell{std::move(name), w, std::move(seeded),
                                   hash});
            }
        }
    }
    out.insert(out.end(), explicit_.begin(), explicit_.end());

    std::set<std::string> names;
    for (const auto &c : out) {
        if (!names.insert(c.name).second)
            SEESAW_FATAL("duplicate cell name in campaign ", name_,
                         ": ", c.name);
    }
    return out;
}

} // namespace seesaw::harness

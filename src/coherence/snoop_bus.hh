/**
 * @file
 * Address-stream models for the two coherence fabrics the paper
 * evaluates: a directory (probes are filtered to lines the L1 actually
 * holds) and a snoopy bus (every remote transaction is broadcast, so
 * the L1 is probed for many absent lines too — which is why SEESAW's
 * cheap probes buy an extra 2-5% in snoopy systems, Section VI-B).
 */

#ifndef SEESAW_COHERENCE_SNOOP_BUS_HH
#define SEESAW_COHERENCE_SNOOP_BUS_HH

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/name_table.hh"
#include "common/random.hh"
#include "common/types.hh"

namespace seesaw {

/** Coherence fabric kind. */
enum class CoherenceKind : std::uint8_t {
    Directory,
    Snoopy,
    /** No coherence traffic at all: single-core runs skip the
     *  synthetic probe load, multi-core runs share only the LLC. */
    None,
};

inline constexpr EnumName<CoherenceKind> kCoherenceKindNames[] = {
    {CoherenceKind::Directory, "directory"},
    {CoherenceKind::Snoopy, "snoopy"},
    {CoherenceKind::None, "none"},
};

inline CoherenceKind
parseCoherenceKind(std::string_view name)
{
    return parseEnumName(kCoherenceKindNames, name, "coherence fabric");
}

inline const char *
coherenceKindName(CoherenceKind kind)
{
    return enumName(kCoherenceKindNames, kind);
}

/**
 * Tracks lines recently resident in the local L1 so the probe stream
 * can target real data (a directory forwards probes only for lines the
 * directory believes we hold).
 */
class ResidentLineTracker
{
  public:
    explicit ResidentLineTracker(std::size_t capacity = 8192);

    /** Record that the line containing @p pa is (still) resident. */
    void note(Addr pa);

    /** @return A recently resident line address, or 0 if empty. */
    Addr sample(Rng &rng) const;

    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

  private:
    std::vector<Addr> ring_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

/**
 * Produces the probe address stream for a coherence fabric.
 */
class SnoopBus
{
  public:
    /**
     * @param kind Directory probes target resident lines; snoopy adds
     *        broadcast probes to (mostly) absent lines.
     * @param snoop_absent_factor Extra absent-line probes per directed
     *        probe under the snoopy fabric.
     */
    SnoopBus(CoherenceKind kind, double snoop_absent_factor,
             std::uint64_t seed);

    /** One probe to issue. */
    struct ProbeRequest
    {
        Addr pa = 0;
        bool invalidating = false;
        bool expectedResident = false;
    };

    /**
     * Generate the probes for a window in which @p directed directed
     * probes are due, drawing targets from @p resident.
     * @param invalidating_fraction Probability a probe invalidates.
     */
    std::vector<ProbeRequest> generate(unsigned directed,
                                       double invalidating_fraction,
                                       const ResidentLineTracker &resident);

    /** Same, appending into @p out (cleared first) so steady-state
     *  callers reuse one buffer instead of allocating per window. */
    void generate(unsigned directed, double invalidating_fraction,
                  const ResidentLineTracker &resident,
                  std::vector<ProbeRequest> &out);

    CoherenceKind kind() const { return kind_; }

  private:
    CoherenceKind kind_;
    double snoopAbsentFactor_;
    Rng rng_;
    double absentCarry_ = 0.0;
};

} // namespace seesaw

#endif // SEESAW_COHERENCE_SNOOP_BUS_HH

/**
 * @file
 * L1 prefetch engines: none, next-line, and a stride/stream prefetcher
 * with across-page tracking.
 *
 * Engines observe the demand VA stream and emit candidate VAs only —
 * they never translate. The issuing layer (CoreComplex) applies the
 * SEESAW legality rule: a candidate is issued only when it falls
 * inside the page backing the triggering access, so a prefetch may
 * cross a 4KB frontier exactly when a superpage translation covers
 * both sides (the partition named by VA bit 12 then still matches the
 * PA's partition). Candidates outside the page are dropped and counted
 * as illegal crossings.
 */

#ifndef SEESAW_CACHE_PREFETCH_PREFETCH_HH
#define SEESAW_CACHE_PREFETCH_PREFETCH_HH

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/name_table.hh"
#include "common/types.hh"

namespace seesaw {

/** Prefetch engine selection. */
enum class PrefetchKind : std::uint8_t {
    None,     //!< no prefetching (the pinned default)
    NextLine, //!< sequential next-N-lines on demand misses
    Stride,   //!< stream table tracking strides across page frontiers
};

inline constexpr EnumName<PrefetchKind> kPrefetchKindNames[] = {
    {PrefetchKind::None, "none"},
    {PrefetchKind::NextLine, "nextline"},
    {PrefetchKind::Stride, "stride"},
};

inline PrefetchKind
parsePrefetchKind(std::string_view name)
{
    return parseEnumName(kPrefetchKindNames, name, "prefetcher");
}

inline const char *
prefetchKindName(PrefetchKind kind)
{
    return enumName(kPrefetchKindNames, kind);
}

/** Prefetch configuration, threaded through SystemConfig. */
struct PrefetchParams
{
    PrefetchKind kind = PrefetchKind::None;
    unsigned degree = 1;        //!< candidates emitted per trigger
    unsigned tableEntries = 64; //!< stream-table entries (Stride)
};

/**
 * A per-core prefetch engine. Purely VA-driven and deterministic: the
 * candidate sequence is a function of the observed access stream
 * alone, so one-pass and serial execution see identical prefetches.
 */
class PrefetchEngine
{
  public:
    virtual ~PrefetchEngine() = default;

    /** Build the engine selected by @p params; nullptr for None. */
    static std::unique_ptr<PrefetchEngine>
    create(const PrefetchParams &params, unsigned line_bytes);

    PrefetchKind kind() const { return kind_; }

    /**
     * Observe a demand access at @p va (@p miss when the L1 missed)
     * and append line-aligned candidate VAs to @p out.
     */
    virtual void observe(Addr va, bool miss,
                         std::vector<Addr> &out) = 0;

  protected:
    PrefetchEngine(PrefetchKind kind, unsigned line_bytes)
        : kind_(kind), lineBytes_(line_bytes)
    {}

    Addr
    lineAlign(Addr va) const
    {
        return va & ~static_cast<Addr>(lineBytes_ - 1);
    }

    PrefetchKind kind_;
    unsigned lineBytes_;
};

} // namespace seesaw

#endif // SEESAW_CACHE_PREFETCH_PREFETCH_HH

/**
 * @file
 * Shared vocabulary of the invariant-audit layer: audit cadence modes,
 * the structured violation report, and the compile-time switch.
 *
 * The audit hooks in the simulators are compiled in only when the
 * `SEESAW_AUDIT` CMake option is ON (the default); release builds can
 * turn them off and pay exactly nothing. When compiled in, the cadence
 * is still selected at runtime (`--audit=off|end|periodic|paranoid`).
 */

#ifndef SEESAW_CHECK_AUDIT_HH
#define SEESAW_CHECK_AUDIT_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "common/name_table.hh"
#include "common/types.hh"

namespace seesaw::check {

/** True when the simulators' audit hooks are compiled in
 *  (CMake option SEESAW_AUDIT, ON by default). */
#if defined(SEESAW_AUDIT)
inline constexpr bool kAuditCompiledIn = true;
#else
inline constexpr bool kAuditCompiledIn = false;
#endif

/** When the registered invariant checks run. */
enum class AuditMode : std::uint8_t
{
    Off,      //!< never
    End,      //!< once, at end of run (the default)
    Periodic, //!< every AuditOptions::periodEvents events + at end
    Paranoid, //!< every event, every coherence transition, and at end
};

/** Runtime audit configuration (part of the system configs). */
struct AuditOptions
{
    AuditMode mode = AuditMode::End;

    /** Events between audits in Periodic mode. */
    std::uint64_t periodEvents = 65'536;
};

inline constexpr EnumName<AuditMode> kAuditModeNames[] = {
    {AuditMode::Off, "off"},
    {AuditMode::End, "end"},
    {AuditMode::Periodic, "periodic"},
    {AuditMode::Paranoid, "paranoid"},
};

/** Parse "off|end|periodic|paranoid" (fatal on anything else). */
inline AuditMode
parseAuditMode(std::string_view text)
{
    return parseEnumName(kAuditModeNames, text, "audit mode");
}

/** The lower-case name parseAuditMode() accepts for @p mode. */
inline const char *
auditModeName(AuditMode mode)
{
    return enumName(kAuditModeNames, mode);
}

/**
 * One invariant violation, as reported by a check. The default
 * response is to print the report and abort — a violation means the
 * simulator state is corrupt and every number derived from it suspect.
 */
struct Violation
{
    std::string check; //!< registered check name, e.g. "l1.partition"
    int core = -1;     //!< offending core, -1 for single-core systems
    Addr addr = 0;     //!< offending (physical or virtual) address
    Cycles cycle = 0;  //!< simulation cycle when the audit caught it
    std::string detail; //!< human-readable explanation
};

/** One-line rendering: check/core/address/cycle/detail. */
std::string formatViolation(const Violation &v);

} // namespace seesaw::check

#endif // SEESAW_CHECK_AUDIT_HH

/**
 * @file
 * The InvariantAuditor: a registry of named invariant checks that the
 * engine (sim/multi_config_engine.hh) invokes at a configurable
 * cadence — every N events, on coherence transitions, and at end of
 * run. A violation produces a structured report (check name, core,
 * address, cycle, detail) and, by default, aborts the process; tests
 * install a collecting handler instead to prove each check fires on a
 * seeded corruption.
 */

#ifndef SEESAW_CHECK_INVARIANT_AUDITOR_HH
#define SEESAW_CHECK_INVARIANT_AUDITOR_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/audit.hh"

namespace seesaw::check {

class InvariantAuditor;

/**
 * Handed to every check while it runs: carries the check's identity
 * and the audit timestamp, and routes violation reports back to the
 * auditor. Multi-core wrappers set core before delegating to the
 * shared audit functions so reports carry the offending core.
 */
class AuditContext
{
  public:
    /** Report one violation at @p addr. */
    void violation(Addr addr, std::string detail);

    /** Core id attached to subsequent reports (-1 = single-core). */
    int core = -1;

  private:
    friend class InvariantAuditor;
    AuditContext(InvariantAuditor &auditor, std::string check,
                 Cycles cycle)
        : auditor_(auditor), check_(std::move(check)), cycle_(cycle)
    {
    }

    InvariantAuditor &auditor_;
    std::string check_;
    Cycles cycle_;
};

/**
 * Registry + cadence engine for invariant checks.
 */
class InvariantAuditor
{
  public:
    /** A check walks some structure and reports via the context. */
    using CheckFn = std::function<void(AuditContext &)>;

    /** Receives each violation; the default prints and aborts. */
    using ViolationHandler = std::function<void(const Violation &)>;

    explicit InvariantAuditor(AuditOptions options = {});

    /** Register @p check under @p name (unique; fatal otherwise). */
    void registerCheck(std::string name, CheckFn check);

    AuditMode mode() const { return options_.mode; }
    bool enabled() const { return options_.mode != AuditMode::Off; }

    /** @name Cadence hooks (called by the simulators). */
    /// @{
    /** @p events simulation events elapsed; audits in Paranoid mode,
     *  and in Periodic mode once the period is consumed. */
    void onEvent(std::uint64_t events, Cycles now);

    /** A coherence transition completed; audits in Paranoid mode. */
    void onCoherenceTransition(Cycles now);

    /** The run finished; audits in every mode but Off. */
    void onEndOfRun(Cycles now);
    /// @}

    /** Run every registered check now, regardless of mode. */
    void runAll(Cycles now);

    /** Replace the abort-on-violation default (tests). */
    void setViolationHandler(ViolationHandler handler);

    /** @name Introspection. */
    /// @{
    std::size_t checkCount() const { return checks_.size(); }
    std::vector<std::string> checkNames() const;
    std::uint64_t auditsRun() const { return auditsRun_; }
    std::uint64_t checksRun() const { return checksRun_; }
    std::uint64_t violations() const { return violations_; }
    /// @}

  private:
    friend class AuditContext;

    void report(const Violation &v);

    struct NamedCheck
    {
        std::string name;
        CheckFn fn;
    };

    AuditOptions options_;
    std::vector<NamedCheck> checks_;
    ViolationHandler handler_;
    std::uint64_t eventsSinceAudit_ = 0;
    std::uint64_t auditsRun_ = 0;
    std::uint64_t checksRun_ = 0;
    std::uint64_t violations_ = 0;
};

} // namespace seesaw::check

#endif // SEESAW_CHECK_INVARIANT_AUDITOR_HH

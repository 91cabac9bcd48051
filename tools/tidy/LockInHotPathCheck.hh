/**
 * @file
 * seesaw-lock-in-hot-path: flags mutex acquisition reachable from the
 * simulator's per-access methods (the engine's step recording and
 * substrate replay, cache access, TLB lookup, translation-cache
 * lookup, core-complex memory access and fetch). The engine's run
 * loop and batch dispatch are not roots: a pass with a replay ring
 * takes the ring mutex a few times per batch by design.
 *
 * Rule (DESIGN.md "Concurrency rules", guarding PR 3's throughput
 * work): the per-access hot path runs millions of times per simulated
 * second and is strictly single-threaded per cell — a mutex there is
 * both a throughput bug and a design smell. Locks belong to the
 * harness/store/service layers that surround the simulation.
 *
 * Reachability is computed per translation unit over the static call
 * graph from the configured root methods; calls to functions whose
 * declarations carry SEESAW_ACQUIRE / SEESAW_EXCLUDES count as
 * acquisitions even when their bodies live in other translation
 * units.
 */

#ifndef SEESAW_TOOLS_TIDY_LOCK_IN_HOT_PATH_CHECK_HH
#define SEESAW_TOOLS_TIDY_LOCK_IN_HOT_PATH_CHECK_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "clang-tidy/ClangTidyCheck.h"

namespace clang::tidy::seesaw {

class LockInHotPathCheck : public ClangTidyCheck
{
  public:
    LockInHotPathCheck(StringRef name, ClangTidyContext *context);

    bool
    isLanguageVersionSupported(const LangOptions &lang_opts) const override
    {
        return lang_opts.CPlusPlus;
    }

    void registerMatchers(ast_matchers::MatchFinder *finder) override;
    void check(const ast_matchers::MatchFinder::MatchResult &result)
        override;
    void storeOptions(ClangTidyOptions::OptionMap &opts) override;
    void onEndOfTranslationUnit() override;

  private:
    struct Acquisition
    {
        std::string mutex; //!< decl-based name ("" = unknown mutex)
        std::string how;   //!< human-readable acquisition description
        SourceLocation loc;
    };

    struct FunctionInfo
    {
        std::vector<Acquisition> acquisitions;
        std::set<std::string> callees; //!< qualified names
    };

    /** Recursive walk collecting acquisitions and callees. */
    void collect(const Stmt *stmt, FunctionInfo &info);

    /** Qualified-name regex selecting the per-access root methods. */
    const std::string hotPathRootPattern_;

    /** Qualified name -> what the function's body does. */
    std::map<std::string, FunctionInfo> functions_;
};

} // namespace clang::tidy::seesaw

#endif // SEESAW_TOOLS_TIDY_LOCK_IN_HOT_PATH_CHECK_HH

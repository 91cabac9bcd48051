#include "LockInHotPathCheck.hh"

#include <deque>

#include "LockUtil.hh"
#include "clang/AST/ASTContext.h"
#include "clang/AST/Attr.h"
#include "clang/AST/ExprCXX.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"
#include "llvm/Support/Regex.h"

using namespace clang::ast_matchers;

namespace clang::tidy::seesaw {

LockInHotPathCheck::LockInHotPathCheck(StringRef name,
                                       ClangTidyContext *context)
    : ClangTidyCheck(name, context),
      hotPathRootPattern_(Options.get(
          "HotPathRootPattern",
          "^seesaw::(MultiConfigEngine::(recordStep|replay|replayEvent)|"
          "CoreComplex::(finishMemoryAccess|finishFetch|"
          "doInstructionFetches)|"
          "L1Cache::access|Tlb::lookup|TlbHierarchy::lookup|"
          "TranslationCache::lookup)"))
{
}

void
LockInHotPathCheck::storeOptions(ClangTidyOptions::OptionMap &opts)
{
    Options.store(opts, "HotPathRootPattern", hotPathRootPattern_);
}

void
LockInHotPathCheck::registerMatchers(ast_matchers::MatchFinder *finder)
{
    finder->addMatcher(
        functionDecl(isDefinition(),
                     unless(isExpansionInSystemHeader()))
            .bind("fn"),
        this);
}

void
LockInHotPathCheck::collect(const Stmt *stmt, FunctionInfo &info)
{
    if (stmt == nullptr)
        return;

    if (const auto *declStmt = dyn_cast<DeclStmt>(stmt)) {
        for (const Decl *decl : declStmt->decls()) {
            const auto *var = dyn_cast<VarDecl>(decl);
            if (var == nullptr)
                continue;
            const std::string type = canonicalTypeString(var);
            if (!isLockGuardType(type))
                continue;
            std::string mutex;
            if (const Expr *init = var->getInit()) {
                if (const auto *ctor = dyn_cast<CXXConstructExpr>(
                        init->IgnoreParenImpCasts())) {
                    if (ctor->getNumArgs() > 0)
                        mutex = mutexName(ctor->getArg(0));
                }
            }
            info.acquisitions.push_back(
                {mutex, "scoped lock guard '" +
                            var->getNameAsString() + "'",
                 var->getBeginLoc()});
        }
    }

    if (const auto *call = dyn_cast<CallExpr>(stmt)) {
        if (const FunctionDecl *callee = call->getDirectCallee()) {
            const std::string calleeName =
                callee->getQualifiedNameAsString();
            info.callees.insert(calleeName);

            if (const auto *memberCall =
                    dyn_cast<CXXMemberCallExpr>(call)) {
                const Expr *object =
                    memberCall->getImplicitObjectArgument();
                std::string objType;
                if (object != nullptr && !object->getType().isNull()) {
                    QualType type = object->getType();
                    if (type->isPointerType())
                        type = type->getPointeeType();
                    objType = type.getCanonicalType()
                                  .getUnqualifiedType()
                                  .getAsString();
                }
                if (isMutexType(objType) &&
                    (callee->getNameAsString() == "lock" ||
                     callee->getNameAsString() == "try_lock")) {
                    info.acquisitions.push_back(
                        {mutexName(object),
                         "direct " + callee->getNameAsString() +
                             "() call",
                         call->getBeginLoc()});
                }
            }

            // Declarations annotated as acquiring or internally
            // taking a mutex count even when the body is elsewhere.
            for (const auto *attr :
                 callee->specific_attrs<AcquireCapabilityAttr>()) {
                for (const std::string &name : attrMutexNames(attr)) {
                    info.acquisitions.push_back(
                        {name, "call to '" + calleeName +
                                   "' which acquires it",
                         call->getBeginLoc()});
                }
            }
            for (const auto *attr :
                 callee->specific_attrs<LocksExcludedAttr>()) {
                for (const std::string &name : attrMutexNames(attr)) {
                    info.acquisitions.push_back(
                        {name, "call to '" + calleeName +
                                   "' which locks it internally",
                         call->getBeginLoc()});
                }
            }
        }
    }

    for (const Stmt *child : stmt->children())
        collect(child, info);
}

void
LockInHotPathCheck::check(
    const ast_matchers::MatchFinder::MatchResult &result)
{
    const auto *fn = result.Nodes.getNodeAs<FunctionDecl>("fn");
    if (fn == nullptr || !fn->doesThisDeclarationHaveABody())
        return;
    const Stmt *body = fn->getBody();
    if (body == nullptr)
        return;
    FunctionInfo &info = functions_[fn->getQualifiedNameAsString()];
    collect(body, info);
}

void
LockInHotPathCheck::onEndOfTranslationUnit()
{
    const llvm::Regex rootPattern(hotPathRootPattern_);

    // BFS from the root methods over the in-TU call graph,
    // remembering which root reached each function.
    std::map<std::string, std::string> reachedFrom;
    std::deque<std::string> queue;
    for (const auto &[name, info] : functions_) {
        (void)info;
        if (rootPattern.match(name)) {
            reachedFrom.emplace(name, name);
            queue.push_back(name);
        }
    }
    while (!queue.empty()) {
        const std::string current = queue.front();
        queue.pop_front();
        const auto it = functions_.find(current);
        if (it == functions_.end())
            continue;
        for (const std::string &callee : it->second.callees) {
            if (reachedFrom.count(callee))
                continue;
            reachedFrom.emplace(callee, reachedFrom[current]);
            queue.push_back(callee);
        }
    }

    for (const auto &[name, info] : functions_) {
        const auto reached = reachedFrom.find(name);
        if (reached == reachedFrom.end())
            continue;
        for (const Acquisition &acq : info.acquisitions) {
            const std::string what =
                acq.mutex.empty() ? std::string("a mutex")
                                  : "mutex '" + acq.mutex + "'";
            diag(acq.loc,
                 "%0 is acquired in '%1', reachable from per-access "
                 "hot path '%2' (%3); locks are banned on the hot "
                 "path — move synchronization to the harness/store "
                 "layer")
                << what << name << reached->second << acq.how;
        }
    }

    functions_.clear();
}

} // namespace clang::tidy::seesaw

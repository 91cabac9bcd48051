/**
 * @file
 * seesaw-analyze check phase: consume the merged whole-program facts
 * JSON produced by seesaw_extract + scripts/analyze.py and enforce the
 * five global invariants the one-pass engine rests on (DESIGN.md
 * "Whole-program static analysis"):
 *
 *   1. front-end-key completeness  — every SystemConfig field read on
 *      the front-end path is serialized in frontEndKey()  [error]
 *   2. front-end-key minimality    — key fields no front-end code
 *      reads (allowlist below)                            [warning]
 *   3. config-hash completeness    — configHash() mixes every config
 *      leaf, and mixes nothing stale                      [error]
 *   4. substrate isolation         — no per-substrate class mutates
 *      front-end-owned state on a path reachable from
 *      MultiConfigEngine's run phase                      [error]
 *   5. layer DAG                   — src/ module includes point only
 *      downward in the layer ranking, acyclically         [error]
 *      plus orphan-stat detection (registered, never read) [warning]
 *
 * The front-end / substrate ownership closures are not hardcoded class
 * lists: only the ROOTS are policy. The closures are computed from the
 * extracted owning-member graph, and the engine's own members are
 * verified against them (ownership-map drift is itself an error), so a
 * new member smuggled into Substrate or CoreFrontEnd re-derives the
 * ownership map or fails the check.
 *
 * This binary is deliberately Clang-free so the facts-level mutation
 * ctests (tests/lint/analyze_check_test.py) run on machines without
 * the Clang dev packages.
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "store/json_value.hh"

namespace {

using seesaw::store::JsonValue;

// ---------------------------------------------------------------- policy

// Layer ranks: an include from module A to module B requires
// rank[B] <= rank[A]. Derived from the dependency reality in
// src/CMakeLists.txt (e.g. tlb sits above mem: the page walker walks
// the mem-owned page table), not from the prose ordering in older
// docs.
const std::map<std::string, int> kLayerRank = {
    {"common", 0}, {"model", 0},
    {"cpu", 1},    {"mem", 1},  {"cache", 1}, {"workload", 1},
    {"tlb", 2},    {"core", 2}, {"coherence", 2},
    {"check", 3},
    {"sim", 4},
    {"harness", 5},
    {"store", 6},
    {"service", 7},
};

// Ownership-closure roots (class names with namespaces stripped,
// nested classes written Outer::Inner). The closures grow through the
// extracted owning-member facts.
const std::set<std::string> kFrontEndRoots = {
    "OsMemoryManager", "Memhog", "CoreFrontEnd", "ReferenceStream",
    "CodeStream", "TraceReader",
};
const std::set<std::string> kSharedTlbRoots = {"TlbHierarchy"};
const std::set<std::string> kSubstrateRoots = {
    "CoreComplex", "EnergyModel", "SetAssocCache", "CoherenceFabric",
    "ExactDirectory", "InvariantAuditor",
};
// Config-invariant value types the engine may own without them being
// front-end, shared-TLB, or substrate state.
const std::set<std::string> kNeutralTypes = {
    "SystemConfig", "WorkloadSpec", "LatencyTable", "Rng",
    "TlbLookupResult", "StatGroup", "MemRef", "RunResult",
};

const char kEngineClass[] = "MultiConfigEngine";

// Definitional functions: their config reads *define* the key/hash
// sets rather than consuming config, so they are excluded from the
// completeness/minimality read sets (compatibleFrontEnds re-compares
// exactly the key fields).
const char kKeyFn[] = "frontEndKey";
const char kGeomFn[] = "tlbGeometryKey";
const char kHashFn[] = "configHash";
const char kCompatFn[] = "compatibleFrontEnds";

// Key-minimality allowlist: key fields no front-end code reads, with
// the reason they must stay in the key anyway. Keyed by config path.
const std::map<std::string, std::string> kKeyReadAllowlist = {
    {"fabric",
     "one-pass groups are restricted to one coherence-fabric kind; "
     "the restriction is enforced by compatibleFrontEnds, not by a "
     "front-end read"},
};

// -------------------------------------------------------------- facts IO

struct ConfigRead {
    std::string path, cls, func, base, file;
    std::uint64_t line = 0;
    bool write = false;
};
struct StatReg {
    std::string name, cls, member, file;
    std::uint64_t line = 0;
};
struct StatRead {
    std::string kind, name, cls, member;
};
struct Member {
    std::string cls, member, type;
    bool owning = false;
};
struct Mutation {
    std::string cls, func, target, name, kind, file;
    std::uint64_t line = 0;
};

struct Facts {
    std::set<std::string> configFields; // all paths, incl. non-leaves
    std::set<std::string> keyFields, geomFields, hashFields;
    std::vector<ConfigRead> reads;
    std::vector<std::pair<std::string, std::string>> includes;
    std::vector<StatReg> statRegs;
    std::vector<StatRead> statReads;
    std::vector<Member> members;
    std::vector<Mutation> mutations;
    std::vector<std::pair<std::string, std::string>> calls;
    std::vector<std::pair<std::string, std::string>> overrides;
    std::size_t ignores = 0;
    std::size_t tus = 0;
};

std::string
str(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.find(key);
    return v && v->kind == JsonValue::Kind::String ? v->str : "";
}

std::uint64_t
num(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.find(key);
    return v && v->isNumber() ? v->asU64() : 0;
}

bool
boolean(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.find(key);
    return v && v->kind == JsonValue::Kind::Bool && v->boolean;
}

const JsonValue *
arr(const JsonValue &doc, const char *key)
{
    const JsonValue *v = doc.find(key);
    return v && v->isArray() ? v : nullptr;
}

bool
loadFacts(const std::string &path, Facts &facts, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot open " + path;
        return false;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    JsonValue doc;
    if (!seesaw::store::parseJson(buf.str(), doc, error))
        return false;
    if (!doc.isObject()) {
        error = "facts document is not a JSON object";
        return false;
    }

    if (const JsonValue *a = arr(doc, "config_fields"))
        for (const JsonValue &e : a->items)
            facts.configFields.insert(str(e, "path"));
    auto loadSet = [&](const char *key, std::set<std::string> &out) {
        if (const JsonValue *a = arr(doc, key))
            for (const JsonValue &e : a->items)
                if (e.kind == JsonValue::Kind::String)
                    out.insert(e.str);
    };
    loadSet("key_fields", facts.keyFields);
    loadSet("geometry_fields", facts.geomFields);
    loadSet("hash_fields", facts.hashFields);

    if (const JsonValue *a = arr(doc, "config_reads"))
        for (const JsonValue &e : a->items)
            facts.reads.push_back({str(e, "path"), str(e, "class"),
                                   str(e, "func"), str(e, "base"),
                                   str(e, "file"), num(e, "line"),
                                   boolean(e, "write")});
    if (const JsonValue *a = arr(doc, "includes"))
        for (const JsonValue &e : a->items)
            facts.includes.emplace_back(str(e, "from"), str(e, "to"));
    if (const JsonValue *a = arr(doc, "stat_regs"))
        for (const JsonValue &e : a->items)
            facts.statRegs.push_back({str(e, "name"), str(e, "class"),
                                      str(e, "member"), str(e, "file"),
                                      num(e, "line")});
    if (const JsonValue *a = arr(doc, "stat_reads"))
        for (const JsonValue &e : a->items)
            facts.statReads.push_back({str(e, "kind"), str(e, "name"),
                                       str(e, "class"),
                                       str(e, "member")});
    if (const JsonValue *a = arr(doc, "members"))
        for (const JsonValue &e : a->items)
            facts.members.push_back({str(e, "class"), str(e, "member"),
                                     str(e, "type"),
                                     boolean(e, "owning")});
    if (const JsonValue *a = arr(doc, "mutations"))
        for (const JsonValue &e : a->items)
            facts.mutations.push_back(
                {str(e, "class"), str(e, "func"), str(e, "target"),
                 str(e, "name"), str(e, "kind"), str(e, "file"),
                 num(e, "line")});
    if (const JsonValue *a = arr(doc, "calls"))
        for (const JsonValue &e : a->items)
            facts.calls.emplace_back(str(e, "caller"),
                                     str(e, "callee"));
    if (const JsonValue *a = arr(doc, "overrides"))
        for (const JsonValue &e : a->items)
            facts.overrides.emplace_back(str(e, "derived"),
                                         str(e, "base"));
    if (const JsonValue *a = arr(doc, "ignores"))
        facts.ignores = a->items.size();
    if (const JsonValue *a = arr(doc, "tus"))
        facts.tus = a->items.size();
    return true;
}

// ------------------------------------------------------------- reporting

struct Reporter {
    std::vector<std::string> errors, warnings;

    void error(const std::string &msg) { errors.push_back(msg); }
    void warning(const std::string &msg) { warnings.push_back(msg); }

    static std::string at(const std::string &file, std::uint64_t line)
    {
        if (file.empty())
            return "";
        return " [" + file +
               (line ? ":" + std::to_string(line) : "") + "]";
    }
};

// ------------------------------------------------------------- utilities

std::string
lastComponent(const std::string &qualified)
{
    const auto pos = qualified.rfind("::");
    return pos == std::string::npos ? qualified
                                    : qualified.substr(pos + 2);
}

bool
isEngineClass(const std::string &cls)
{
    return cls == kEngineClass ||
           cls.rfind(std::string(kEngineClass) + "::", 0) == 0;
}

/** Expand one config path to its set of leaf paths: "os" becomes
 *  every "os.<leaf>"; a leaf expands to itself. */
std::set<std::string>
expandToLeaves(const std::string &path,
               const std::set<std::string> &fields)
{
    std::set<std::string> leaves;
    const std::string prefix = path + ".";
    for (const std::string &f : fields)
        if (f.rfind(prefix, 0) == 0)
            leaves.insert(f);
    if (leaves.empty())
        leaves.insert(path);
    // Expansion is single-level in practice (SystemConfig nests one
    // deep); recurse anyway so a deeper nesting cannot hide a leaf.
    std::set<std::string> out;
    for (const std::string &l : leaves) {
        if (l == path) {
            out.insert(l);
            continue;
        }
        auto sub = expandToLeaves(l, fields);
        out.insert(sub.begin(), sub.end());
    }
    return out;
}

std::set<std::string>
expandAll(const std::set<std::string> &paths,
          const std::set<std::string> &fields)
{
    std::set<std::string> out;
    for (const std::string &p : paths) {
        auto leaves = expandToLeaves(p, fields);
        out.insert(leaves.begin(), leaves.end());
    }
    return out;
}

bool
isLeafField(const std::string &path,
            const std::set<std::string> &fields)
{
    const std::string prefix = path + ".";
    for (const std::string &f : fields)
        if (f.rfind(prefix, 0) == 0)
            return false;
    return true;
}

/** Transitive closure over the owning-member graph. */
std::set<std::string>
ownershipClosure(const std::set<std::string> &roots,
                 const std::vector<Member> &members)
{
    std::map<std::string, std::set<std::string>> owns;
    for (const Member &m : members)
        if (m.owning && !m.type.empty())
            owns[m.cls].insert(m.type);
    std::set<std::string> closure = roots;
    std::vector<std::string> work(roots.begin(), roots.end());
    while (!work.empty()) {
        const std::string cls = work.back();
        work.pop_back();
        auto it = owns.find(cls);
        if (it == owns.end())
            continue;
        for (const std::string &owned : it->second)
            if (closure.insert(owned).second)
                work.push_back(owned);
    }
    return closure;
}

/** Functions reachable from every function whose unqualified name is
 *  @p start, following call edges and expanding virtual calls through
 *  the override facts. */
std::set<std::string>
reachableFrom(const std::string &start, const Facts &facts)
{
    std::map<std::string, std::vector<std::string>> graph;
    for (const auto &[caller, callee] : facts.calls)
        graph[caller].push_back(callee);
    std::map<std::string, std::vector<std::string>> derived;
    for (const auto &[d, b] : facts.overrides)
        derived[b].push_back(d);

    std::set<std::string> seen;
    std::vector<std::string> work;
    auto push = [&](const std::string &fn) {
        if (seen.insert(fn).second)
            work.push_back(fn);
    };
    for (const auto &[caller, callees] : graph)
        if (lastComponent(caller) == start)
            push(caller);
    // A definitional function with no outgoing repo calls still
    // matters for read attribution: seed it even without call edges.
    for (const ConfigRead &r : facts.reads)
        if (lastComponent(r.func) == start)
            push(r.func);
    while (!work.empty()) {
        const std::string fn = work.back();
        work.pop_back();
        auto it = graph.find(fn);
        if (it != graph.end())
            for (const std::string &callee : it->second)
                push(callee);
        auto ov = derived.find(fn);
        if (ov != derived.end())
            for (const std::string &impl : ov->second)
                push(impl);
    }
    return seen;
}

// ------------------------------------------------------------ invariants

struct Closures {
    std::set<std::string> frontEnd, sharedTlb, substrate;
};

/** Reads that feed front-end state: reads by front-end-closure
 *  classes, plus engine-class reads not proven per-substrate
 *  ("front" alias, or unclassified — fail closed). Definitional
 *  functions (frontEndKey & friends) are excluded. */
bool
isFrontEndRead(const ConfigRead &r, const Closures &closures,
               const std::set<std::string> &definitional)
{
    if (r.write || definitional.count(r.func))
        return false;
    if (closures.frontEnd.count(r.cls))
        return true;
    if (isEngineClass(r.cls))
        return r.base != "indexed";
    return false;
}

void
checkKeyCompleteness(const Facts &facts, const Closures &closures,
                     const std::set<std::string> &definitional,
                     const std::set<std::string> &effKey,
                     const std::set<std::string> &effGeom,
                     Reporter &rep)
{
    for (const ConfigRead &r : facts.reads) {
        const bool tlbRead = closures.sharedTlb.count(r.cls) &&
                             !definitional.count(r.func) && !r.write;
        if (!isFrontEndRead(r, closures, definitional) && !tlbRead)
            continue;
        for (const std::string &leaf :
             expandToLeaves(r.path, facts.configFields)) {
            if (effKey.count(leaf))
                continue;
            if (tlbRead && effGeom.count(leaf))
                continue;
            rep.error(
                "front-end-key completeness: config field '" + leaf +
                "' is read on the front-end path by " + r.cls +
                "::" + lastComponent(r.func) +
                " but is not serialized in " + kKeyFn + "()" +
                (tlbRead ? std::string(" or ") + kGeomFn + "()" : "") +
                Reporter::at(r.file, r.line));
        }
    }
}

void
checkKeyMinimality(const Facts &facts, const Closures &closures,
                   const std::set<std::string> &definitional,
                   const std::set<std::string> &effKey, Reporter &rep)
{
    std::set<std::string> readLeaves;
    for (const ConfigRead &r : facts.reads) {
        const bool tlbRead = closures.sharedTlb.count(r.cls) &&
                             !definitional.count(r.func) && !r.write;
        if (!isFrontEndRead(r, closures, definitional) && !tlbRead)
            continue;
        auto leaves = expandToLeaves(r.path, facts.configFields);
        readLeaves.insert(leaves.begin(), leaves.end());
    }
    for (const std::string &leaf : effKey) {
        if (readLeaves.count(leaf))
            continue;
        const std::string top = leaf.substr(0, leaf.find('.'));
        if (kKeyReadAllowlist.count(leaf) ||
            kKeyReadAllowlist.count(top))
            continue;
        rep.warning("front-end-key minimality: key field '" + leaf +
                    "' is serialized in " + std::string(kKeyFn) +
                    "() but no front-end code reads it (stale key "
                    "entry, or add it to kKeyReadAllowlist with a "
                    "reason)");
    }
}

void
checkHashCompleteness(const Facts &facts,
                      const std::set<std::string> &effHash,
                      Reporter &rep)
{
    for (const std::string &f : facts.configFields) {
        if (!isLeafField(f, facts.configFields))
            continue;
        if (!effHash.count(f))
            rep.error("config-hash completeness: SystemConfig field "
                      "'" +
                      f + "' is not mixed into " +
                      std::string(kHashFn) + "()");
    }
    for (const std::string &f : effHash)
        if (!facts.configFields.count(f))
            rep.error("config-hash completeness: " +
                      std::string(kHashFn) + "() mixes '" + f +
                      "' but SystemConfig declares no such field "
                      "(stale mix)");
}

void
checkSubstrateIsolation(const Facts &facts, const Closures &closures,
                        Reporter &rep)
{
    // Mutators: per-substrate-only classes. Shared-TLB classes (the
    // page walker legitimately fills the front end's translation
    // cache) and classes also owned by the front end are excluded.
    // Neutral value types (StatGroup, Rng, ...) are per-class
    // plumbing owned on both sides; excluding them keeps e.g.
    // CpuModel::resetMeasurement's stats_.resetAll() from reading as
    // a front-end mutation.
    std::set<std::string> mutators;
    for (const std::string &cls : closures.substrate)
        if (!closures.frontEnd.count(cls) &&
            !closures.sharedTlb.count(cls) &&
            !kNeutralTypes.count(cls))
            mutators.insert(cls);
    std::set<std::string> targets;
    for (const std::string &cls : closures.frontEnd)
        if (!closures.substrate.count(cls) &&
            !closures.sharedTlb.count(cls) &&
            !kNeutralTypes.count(cls))
            targets.insert(cls);

    // Run-phase reachability: everything callable from the engine's
    // methods. Construction (CXXConstructExpr) contributes no call
    // edges, so setup-time touches of front-end state stay legal.
    std::set<std::string> reachable;
    {
        std::map<std::string, std::vector<std::string>> graph;
        for (const auto &[caller, callee] : facts.calls)
            graph[caller].push_back(callee);
        std::map<std::string, std::vector<std::string>> derived;
        for (const auto &[d, b] : facts.overrides)
            derived[b].push_back(d);
        std::vector<std::string> work;
        auto push = [&](const std::string &fn) {
            if (reachable.insert(fn).second)
                work.push_back(fn);
        };
        for (const auto &[caller, callees] : graph)
            if (isEngineClass(caller.substr(
                    0, caller.rfind("::") == std::string::npos
                           ? 0
                           : caller.rfind("::"))))
                push(caller);
        for (const Mutation &m : facts.mutations)
            if (isEngineClass(m.cls))
                push(m.func);
        while (!work.empty()) {
            const std::string fn = work.back();
            work.pop_back();
            auto it = graph.find(fn);
            if (it != graph.end())
                for (const std::string &callee : it->second)
                    push(callee);
            auto ov = derived.find(fn);
            if (ov != derived.end())
                for (const std::string &impl : ov->second)
                    push(impl);
        }
    }

    for (const Mutation &m : facts.mutations) {
        if (!mutators.count(m.cls) || !targets.count(m.target))
            continue;
        if (!reachable.count(m.func))
            continue;
        rep.error(
            "substrate isolation: per-substrate class " + m.cls +
            " (" + lastComponent(m.func) + ") " +
            (m.kind == "write" ? "writes member '" : "calls mutating '") +
            m.name + "' of front-end-owned " + m.target +
            " on a path reachable from " + kEngineClass +
            Reporter::at(m.file, m.line));
    }
}

std::string
moduleOf(const std::string &path)
{
    if (path.rfind("src/", 0) != 0)
        return "";
    const auto end = path.find('/', 4);
    return end == std::string::npos ? "" : path.substr(4, end - 4);
}

void
checkLayering(const Facts &facts, Reporter &rep)
{
    std::map<std::string, std::set<std::string>> moduleEdges;
    for (const auto &[from, to] : facts.includes) {
        const std::string fromMod = moduleOf(from);
        const std::string toMod = moduleOf(to);
        if (fromMod.empty() || toMod.empty() || fromMod == toMod)
            continue;
        for (const std::string &mod : {fromMod, toMod}) {
            if (!kLayerRank.count(mod))
                rep.error("layering: unknown src/ module '" + mod +
                          "' (add it to kLayerRank in "
                          "tools/analyze/analyze_check.cc)");
        }
        if (!kLayerRank.count(fromMod) || !kLayerRank.count(toMod))
            continue;
        if (kLayerRank.at(toMod) > kLayerRank.at(fromMod))
            rep.error("layering: upward include " + from + " -> " +
                      to + " (" + fromMod + " rank " +
                      std::to_string(kLayerRank.at(fromMod)) +
                      " < " + toMod + " rank " +
                      std::to_string(kLayerRank.at(toMod)) + ")");
        moduleEdges[fromMod].insert(toMod);
    }

    // Acyclicity, independent of the rank assignment.
    std::map<std::string, int> state; // 0 new, 1 on stack, 2 done
    std::vector<std::string> cycle;
    std::function<bool(const std::string &)> dfs =
        [&](const std::string &mod) {
            state[mod] = 1;
            for (const std::string &next : moduleEdges[mod]) {
                if (state[next] == 1) {
                    cycle = {mod, next};
                    return true;
                }
                if (state[next] == 0 && dfs(next))
                    return true;
            }
            state[mod] = 2;
            return false;
        };
    for (const auto &[mod, edges] : moduleEdges)
        if (state[mod] == 0 && dfs(mod)) {
            rep.error("layering: include cycle through modules '" +
                      cycle[0] + "' and '" + cycle[1] + "'");
            break;
        }
}

void
checkOrphanStats(const Facts &facts, Reporter &rep)
{
    std::set<std::string> getNames;
    std::set<std::pair<std::string, std::string>> handleReads;
    std::set<std::string> dumpedClasses;
    for (const StatRead &r : facts.statReads) {
        if (r.kind == "get")
            getNames.insert(r.name);
        else if (r.kind == "handle")
            handleReads.emplace(r.cls, r.member);
        else if (r.kind == "dump" && !r.cls.empty())
            dumpedClasses.insert(r.cls);
    }
    std::set<std::pair<std::string, std::string>> reported;
    for (const StatReg &reg : facts.statRegs) {
        if (getNames.count(reg.name) || getNames.count("<dynamic>"))
            continue;
        if (!reg.member.empty() &&
            handleReads.count({reg.cls, reg.member}))
            continue;
        if (dumpedClasses.count(reg.cls))
            continue;
        if (!reported.emplace(reg.cls, reg.name).second)
            continue;
        rep.warning("orphan stat: '" + reg.name + "' registered by " +
                    reg.cls +
                    " is never collected (no StatGroup::get, no "
                    "handle read, no dump)" +
                    Reporter::at(reg.file, reg.line));
    }
}

void
checkOwnershipMap(const Facts &facts, const Closures &closures,
                  Reporter &rep)
{
    const std::string substrateCls =
        std::string(kEngineClass) + "::Substrate";
    const std::set<std::string> frontEndSide = {
        kEngineClass, "CoreFrontEnd",
        std::string(kEngineClass) + "::TlbGroup"};

    bool sawSubstrate = false;
    for (const Member &m : facts.members) {
        if (!m.owning || m.type.empty())
            continue;
        const bool nestedOfEngine =
            m.type.rfind(std::string(kEngineClass) + "::", 0) == 0;
        if (m.cls == substrateCls) {
            sawSubstrate = true;
            if (!closures.substrate.count(m.type) &&
                !kNeutralTypes.count(m.type))
                rep.error("ownership map drift: " + substrateCls +
                          "::" + m.member + " owns a " + m.type +
                          ", which is not in the substrate closure; "
                          "extend kSubstrateRoots/kNeutralTypes or "
                          "move the member");
        } else if (frontEndSide.count(m.cls)) {
            if (!closures.frontEnd.count(m.type) &&
                !closures.sharedTlb.count(m.type) &&
                !kNeutralTypes.count(m.type) && !nestedOfEngine)
                rep.error("ownership map drift: " + m.cls + "::" +
                          m.member + " owns a " + m.type +
                          ", which is not in the front-end or "
                          "shared-TLB closure; extend "
                          "kFrontEndRoots/kSharedTlbRoots/"
                          "kNeutralTypes or move the member");
        }
    }
    if (!sawSubstrate)
        rep.error("facts contain no owning members for " +
                  substrateCls +
                  " — extraction did not cover the engine TU, so "
                  "every closure-based check would be vacuous");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string factsPath;
    bool werror = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--facts" && i + 1 < argc) {
            factsPath = argv[++i];
        } else if (arg == "--werror") {
            werror = true;
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "usage: seesaw_analyze_check --facts "
                         "FILE [--werror]\n";
            return 0;
        } else {
            std::cerr << "error: unknown argument '" << arg << "'\n";
            return 2;
        }
    }
    if (factsPath.empty()) {
        std::cerr << "error: --facts FILE is required\n";
        return 2;
    }

    Facts facts;
    std::string parseError;
    if (!loadFacts(factsPath, facts, parseError)) {
        std::cerr << "error: " << factsPath << ": " << parseError
                  << "\n";
        return 2;
    }

    Reporter rep;

    // Fail closed on structurally empty facts: an extraction bug must
    // not look like a clean program.
    if (facts.configFields.empty())
        rep.error("facts contain no config_fields (SystemConfig not "
                  "seen by extraction)");
    if (facts.keyFields.empty())
        rep.error("facts contain no key_fields (" +
                  std::string(kKeyFn) + "() not seen by extraction)");
    if (facts.hashFields.empty())
        rep.error("facts contain no hash_fields (" +
                  std::string(kHashFn) + "() not seen by extraction)");

    Closures closures;
    closures.frontEnd = ownershipClosure(kFrontEndRoots, facts.members);
    closures.sharedTlb =
        ownershipClosure(kSharedTlbRoots, facts.members);
    closures.substrate =
        ownershipClosure(kSubstrateRoots, facts.members);

    // Definitional functions and everything they call: their reads
    // define the key/geometry/hash sets instead of consuming config.
    std::set<std::string> definitional;
    std::set<std::string> effKey = facts.keyFields;
    std::set<std::string> effGeom = facts.geomFields;
    std::set<std::string> effHash = facts.hashFields;
    for (const char *fn : {kKeyFn, kGeomFn, kHashFn, kCompatFn}) {
        const auto reach = reachableFrom(fn, facts);
        definitional.insert(reach.begin(), reach.end());
        // Helper functions called from the definitional roots
        // contribute their reads to the corresponding set ("sees
        // through helper functions").
        for (const ConfigRead &r : facts.reads) {
            if (!reach.count(r.func) || r.write)
                continue;
            if (fn == kKeyFn)
                effKey.insert(r.path);
            else if (fn == kGeomFn)
                effGeom.insert(r.path);
            else if (fn == kHashFn)
                effHash.insert(r.path);
        }
    }
    effKey = expandAll(effKey, facts.configFields);
    effGeom = expandAll(effGeom, facts.configFields);
    effHash = expandAll(effHash, facts.configFields);

    if (!facts.configFields.empty() && !facts.keyFields.empty()) {
        checkKeyCompleteness(facts, closures, definitional, effKey,
                             effGeom, rep);
        checkKeyMinimality(facts, closures, definitional, effKey,
                           rep);
    }
    if (!facts.configFields.empty() && !facts.hashFields.empty())
        checkHashCompleteness(facts, effHash, rep);
    checkSubstrateIsolation(facts, closures, rep);
    checkLayering(facts, rep);
    checkOrphanStats(facts, rep);
    checkOwnershipMap(facts, closures, rep);

    std::sort(rep.errors.begin(), rep.errors.end());
    std::sort(rep.warnings.begin(), rep.warnings.end());
    for (const std::string &e : rep.errors)
        std::cout << "error: " << e << "\n";
    for (const std::string &w : rep.warnings)
        std::cout << "warning: " << w << "\n";

    std::cout << "seesaw-analyze: " << facts.tus << " TUs, "
              << facts.configFields.size() << " config paths, "
              << facts.reads.size() << " reads, "
              << facts.statRegs.size() << " stat registrations, "
              << facts.ignores << " ignored sites -> "
              << rep.errors.size() << " error(s), "
              << rep.warnings.size() << " warning(s)"
              << (werror && !rep.warnings.empty()
                      ? " [warnings-as-errors]"
                      : "")
              << "\n";
    if (!rep.errors.empty())
        return 1;
    if (werror && !rep.warnings.empty())
        return 1;
    return 0;
}

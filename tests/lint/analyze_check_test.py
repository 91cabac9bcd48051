#!/usr/bin/env python3
"""Mutation tests for seesaw_analyze_check (the check phase of
seesaw-analyze).

fixtures/analyze/facts_base.json is a hand-written merged-facts
document modeling the real program shape (engine front()/indexed
reads, ownership graph, call graph, stats). It must pass cleanly
under --werror; then each mutation below injects one violation and
must produce the matching diagnostic with a non-zero exit. This
proves all five invariants fail closed at the facts level without
needing the Clang toolchain (the extraction side is pinned by
run_analyze_fixture.py).

Exits 77 (ctest SKIP) only when the check binary is missing, i.e.
the build was configured with SEESAW_BUILD_ANALYZE=OFF.
"""

import argparse
import copy
import json
import os
import subprocess
import sys
import tempfile

SKIP = 77

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
BASE = os.path.join(HERE, "fixtures", "analyze", "facts_base.json")


def read(path, cls, func, base, file, write=False):
    return {"path": path, "class": cls, "func": func, "base": base,
            "file": file, "line": 1, "write": write}


# (name, mutate(facts), expected diagnostic substring)

def m_key_completeness(f):
    # A front-end-owned class starts reading a field that is not
    # serialized into frontEndKey(): divergent replay.
    f["config_reads"].append(read(
        "l1Assoc", "TranslationCache", "TranslationCache::lookup",
        "member", "src/tlb/translation_cache.cc"))


def m_key_minimality(f):
    # Key serializes a field no front-end code reads: groups split
    # for no reason.
    f["key_fields"].append("l1Assoc")


def m_hash_drift(f):
    # A declared SystemConfig field is no longer mixed into
    # configHash().
    f["hash_fields"].remove("memhog.churn")


def m_hash_stale(f):
    # configHash() mixes a field SystemConfig no longer declares.
    f["hash_fields"].append("ghostKnob")


def m_substrate_isolation(f):
    # The replay half draws from the shared front end through a
    # complex: CoreComplex::nextRef advances the CoreFrontEnd every
    # substrate shares.
    f["calls"].append({"caller": "MultiConfigEngine::replay",
                       "callee": "CoreComplex::nextRef"})


def m_layering(f):
    # cache (rank 1) must not include sim (rank 4).
    f["includes"].append({"from": "src/cache/set_assoc_cache.hh",
                          "to": "src/sim/sim_engine.hh"})


def m_orphan_stat(f):
    # Registered but never collected anywhere.
    f["stat_regs"].append({"name": "ghost_evictions", "class": "Tft",
                           "member": "stGhost_",
                           "file": "src/tlb/tft.cc", "line": 10})


def m_ownership_drift(f):
    # A per-substrate slot takes ownership of a front-end root class.
    f["members"].append({"class": "MultiConfigEngine::Substrate",
                         "member": "rogue_", "type": "Memhog",
                         "owning": True})


def m_engine_unknown_base(f):
    # An engine read whose base we cannot classify must be treated as
    # a front-end read (fail closed), tripping key completeness.
    f["config_reads"].append(read(
        "l1Assoc", "MultiConfigEngine", "MultiConfigEngine::recordStep",
        "unknown", "src/sim/multi_config_engine.cc"))


MUTATIONS = [
    ("key-completeness", m_key_completeness,
     "front-end-key completeness: config field 'l1Assoc'"),
    ("key-minimality", m_key_minimality,
     "front-end-key minimality: key field 'l1Assoc'"),
    ("hash-drift", m_hash_drift,
     "config-hash completeness: SystemConfig field 'memhog.churn'"),
    ("hash-stale", m_hash_stale,
     "mixes 'ghostKnob'"),
    ("substrate-isolation", m_substrate_isolation,
     "substrate isolation: per-substrate class CoreComplex"),
    ("layering", m_layering,
     "layering: upward include src/cache/set_assoc_cache.hh"),
    ("orphan-stat", m_orphan_stat,
     "orphan stat: 'ghost_evictions' registered by Tft"),
    ("ownership-drift", m_ownership_drift,
     "ownership map drift: MultiConfigEngine::Substrate::rogue_"),
    ("engine-unknown-base", m_engine_unknown_base,
     "front-end-key completeness: config field 'l1Assoc'"),
]


def run_check(check, facts, tmpdir, name):
    path = os.path.join(tmpdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(facts, fh)
    proc = subprocess.run([check, "--facts", path, "--werror"],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", default=os.path.join(
        REPO, "build", "tools", "seesaw_analyze_check"))
    args = parser.parse_args()

    if not os.path.exists(args.check):
        print(f"SKIP: check binary not built at {args.check} "
              f"(SEESAW_BUILD_ANALYZE=OFF?)")
        return SKIP

    with open(BASE, encoding="utf-8") as fh:
        base = json.load(fh)

    failed = False
    with tempfile.TemporaryDirectory() as tmpdir:
        rc, out = run_check(args.check, base, tmpdir, "clean")
        if rc != 0:
            print(f"FAIL: clean base facts rejected (exit {rc}):\n"
                  f"{out}")
            return 1
        print("PASS: clean base facts accepted under --werror")

        for name, mutate, expect in MUTATIONS:
            facts = copy.deepcopy(base)
            mutate(facts)
            rc, out = run_check(args.check, facts, tmpdir, name)
            if rc == 0:
                print(f"FAIL: {name}: mutation not detected")
                failed = True
            elif expect not in out:
                print(f"FAIL: {name}: exit {rc} but diagnostic "
                      f"missing {expect!r}:\n{out}")
                failed = True
            else:
                print(f"PASS: {name} fails closed")
    if failed:
        return 1
    print(f"PASS: all {len(MUTATIONS)} mutations detected")
    return 0


if __name__ == "__main__":
    sys.exit(main())

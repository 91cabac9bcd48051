#!/usr/bin/env python3
"""End-to-end simulator benchmark (see perfbench/README.md).

Builds the simulator library and the seesaw_bench program from this
checkout's sources, runs one workload and prints its report;
the last line of stdout is the JSON result.

    python3 perfbench/run.py --workload hot_redis_1c --seed 1 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record     # rewrite the reference file

The build goes to $CARGO_TARGET_DIR when set, else .bench_build, both
relative to the checkout root.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference_fingerprints.txt"
WORKLOADS = ["hot_redis_1c", "frag_sweep_gups", "share_cann_4c"]
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configure once, then bring seesaw_bench up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}; run "
             "from a full checkout of the repository")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", str(out), "--target", "seesaw_bench",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, env=env).returncode:
        fail("build failed")
    return out / "seesaw_bench"


def run_bench(binary, args):
    """Run seesaw_bench; return (exit code, stdout lines, stderr text)."""
    cmd = [str(binary)] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S}s: {' '.join(cmd)}")
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def result_of(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def self_test(binary):
    """Quick budgets: metric names and units, trace coverage, the
    traced-equals-untraced check, and a perturbed reference failing."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    common = ["--quick", "--seconds", "1", "--seed", str(DEFAULT_SEED),
              "--reference", str(REFERENCE)]
    for workload in WORKLOADS:
        for trace, wanted in (("0", spec["end_to_end"]),
                              ("1", spec["per_layer"])):
            code, lines, errors = run_bench(
                binary, ["--workload", workload, "--trace", trace] + common)
            result = result_of(lines)
            where = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{where}: exit {code}, no result: {errors}")
                continue
            if result["failed"] != 0:
                problems.append(f"{where}: {result['failed']} cells failed: "
                                f"{errors}")
            metrics = result["metrics"]
            for m in wanted:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{where}: metric {m['name']} "
                                    f"[{m['unit']}] missing, got {got}")
            if trace == "1":
                traced = [l for l in errors.splitlines()
                          if l.startswith("FAIL") and " traced: " in l]
                if traced:
                    problems.append(f"{where}: traced != untraced: {traced}")
                coverage = metrics.get("trace.coverage", {}).get("value", 0)
                if not coverage > 0:
                    problems.append(f"{where}: trace.coverage not computed")
                print(f"self-test: {where}: trace.coverage="
                      f"{coverage:.3f}, traced run matches untraced")
            print(f"self-test: {where}: {len(wanted)} metrics present")
        code, lines, _ = run_bench(
            binary, ["--workload", workload, "--trace", "0",
                     "--perturb-reference"] + common)
        result = result_of(lines)
        if code != 0 or result is None or result["failed"] == 0:
            problems.append(f"{workload}: a perturbed reference fingerprint "
                            "did not raise the failure count")
        else:
            print(f"self-test: {workload}: perturbed reference fails "
                  f"{result['failed']} of {result['attempted']} cells")
    for p in problems:
        print(f"self-test FAILED: {p}", file=sys.stderr)
    return 1 if problems else 0


def record(binary):
    lines = ["# Reference RunResult fingerprints at the default seed "
             "(perfbench/README.md).",
             "# <budget> <cell> <fnv1a-64 of the canonical RunResult>"]
    for budget in ([], ["--quick"]):
        for workload in WORKLOADS:
            code, out, errors = run_bench(
                binary, ["--workload", workload, "--record"] + budget)
            if code != 0:
                fail(f"recording {workload} failed (exit {code}): {errors}")
            lines += out
    REFERENCE.write_text("\n".join(lines) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not (args.self_test or args.record or args.workload):
        parser.error("--workload is required")

    binary = build()
    if args.self_test:
        return self_test(binary)
    if args.record:
        return record(binary)

    code, lines, errors = run_bench(
        binary, ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--reference", str(REFERENCE)])
    sys.stderr.write(errors)
    for line in lines:
        print(line)
    if code != 0 or result_of(lines) is None:
        print(f"perfbench: seesaw_bench exited {code} without a result",
              file=sys.stderr)
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

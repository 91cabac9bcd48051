#!/usr/bin/env bash
# Local mirror of the CI correctness matrix:
#
#   default    -Wall -Wextra -Werror build, full test suite
#   audit-off  verify the hooks compile out cleanly (SEESAW_AUDIT=OFF)
#   asan-ubsan AddressSanitizer + UBSan build, full test suite
#   tsan       ThreadSanitizer build, threaded harness and one-pass
#              tests + a 2-worker smoke campaign and a one-pass sweep
#   tidy       clang-tidy over the compilation database (skipped with a
#              notice when clang-tidy is not installed)
#   lint       project-discipline checks: configHash drift, NOLINT
#              justifications, the seesaw-tidy fixture suite
#              (ctest -L lint; SKIPs when clang-tidy is absent), and
#              — when the plugin built — seesaw-tidy over all of src/
#   format     git clang-format --diff of changed lines vs the merge
#              base (skipped with a notice when not installed)
#   perf       perf-regression gate: 3-run median of the throughput
#              suite vs bench/perf/BENCH_throughput.baseline.json
#              (the local mirror of the CI perf-gate job)
#   service    campaign-service gate: store/service unit tests, then
#              the kill-and-resume convergence script (a 2-worker
#              campaign SIGKILLed partway must resume, skip finished
#              cells, and match an uninterrupted serial store
#              bit-for-bit — the local mirror of the CI
#              campaign-resume job)
#   threads    Clang Thread Safety Analysis build (-Wthread-safety as
#              errors over the capability annotations) plus the
#              compile-fail snippet tests (skipped with a notice when
#              clang++ is not installed; CI runs it)
#   analyze    seesaw-analyze whole-program gate: facts-level mutation
#              ctests, then extract over compile_commands.json and the
#              five-invariant check with warnings as errors (the
#              extraction half SKIPs with a notice when Clang dev
#              packages are absent; CI requires it)
#
# Usage: scripts/check.sh [stage...]   (default: all stages)

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc)"
stages=("$@")
[ ${#stages[@]} -eq 0 ] && \
    stages=(default audit-off asan-ubsan tsan tidy lint format perf
        service threads analyze)

banner() { printf '\n=== %s ===\n' "$*"; }

configure_build_test() {
    local dir="$1"; shift
    cmake -S "$repo" -B "$dir" "$@"
    cmake --build "$dir" -j "$jobs"
    ctest --test-dir "$dir" --output-on-failure -j "$jobs"
}

for stage in "${stages[@]}"; do
    case "$stage" in
    default)
        banner "default build + tests"
        configure_build_test "$repo/build"
        ;;
    audit-off)
        banner "SEESAW_AUDIT=OFF build + tests"
        configure_build_test "$repo/build-noaudit" -DSEESAW_AUDIT=OFF
        ;;
    asan-ubsan)
        banner "ASan+UBSan build + tests"
        configure_build_test "$repo/build-asan" \
            -DSEESAW_SANITIZE=asan-ubsan
        ;;
    tsan)
        banner "TSan build + threaded smoke"
        cmake -S "$repo" -B "$repo/build-tsan" -DSEESAW_SANITIZE=tsan
        cmake --build "$repo/build-tsan" -j "$jobs"
        # The harness, the one-pass substrate replay (every SimEngine
        # run records and replays on two threads) and the service
        # workers (real cells plus heartbeat threads) own all the
        # threading; run their suites plus parallel campaigns so real
        # worker interleavings execute.
        ctest --test-dir "$repo/build-tsan" --output-on-failure \
            -R 'ThreadPool|Campaign|Sink|MultiConfigEngine|SimEngine|Service\.|ParseJobs'
        "$repo/build-tsan/examples/campaign" --campaign tsan-smoke \
            --workloads redis,mcf --l1 32K --jobs 2 \
            --instructions 50000 --quiet
        "$repo/build-tsan/examples/campaign" --campaign tsan-one-pass \
            --workloads redis --l1 32K,64K --designs vipt,seesaw \
            --one-pass on --jobs 4 --instructions 50000 --quiet
        ;;
    tidy)
        banner "clang-tidy"
        if ! command -v clang-tidy > /dev/null; then
            echo "clang-tidy not installed; skipping (CI runs it)"
            continue
        fi
        cmake -S "$repo" -B "$repo/build" > /dev/null # refresh DB
        mapfile -t sources < <(
            find "$repo/src" "$repo/examples" "$repo/bench" \
                -name '*.cc' -o -name '*.cpp' | sort)
        if command -v run-clang-tidy > /dev/null; then
            run-clang-tidy -p "$repo/build" -j "$jobs" -quiet \
                "${sources[@]}"
        else
            clang-tidy -p "$repo/build" --quiet "${sources[@]}"
        fi
        ;;
    lint)
        banner "project lint"
        python3 "$repo/scripts/config_hash_drift.py"
        python3 "$repo/scripts/check_nolint.py"
        cmake -S "$repo" -B "$repo/build" > /dev/null
        cmake --build "$repo/build" -j "$jobs"
        # Fixture tests SKIP (exit 77) when clang-tidy or the plugin
        # headers are missing; ctest reports that visibly.
        ctest --test-dir "$repo/build" --output-on-failure -L lint
        plugin="$repo/build/tools/tidy/libSeesawTidy.so"
        if command -v clang-tidy > /dev/null && [ -f "$plugin" ]; then
            mapfile -t sources < <(
                find "$repo/src" -name '*.cc' | sort)
            clang-tidy -p "$repo/build" --quiet -load "$plugin" \
                -checks='-*,seesaw-*' --warnings-as-errors='seesaw-*' \
                "${sources[@]}"
            echo "seesaw-tidy: src/ is clean"
        else
            echo "seesaw-tidy plugin or clang-tidy unavailable;" \
                "skipping whole-src sweep (CI runs it)"
        fi
        ;;
    format)
        banner "format gate (changed lines vs merge base)"
        if ! command -v git-clang-format > /dev/null \
            && ! git clang-format -h > /dev/null 2>&1; then
            echo "git-clang-format not installed; skipping (CI runs it)"
            continue
        fi
        base="$(git -C "$repo" merge-base HEAD origin/main \
            2> /dev/null || git -C "$repo" rev-parse HEAD~1)"
        out="$(git -C "$repo" clang-format --diff "$base" -- \
            src tests tools bench examples || true)"
        if [ -n "$out" ] && ! grep -q "did not modify" <<< "$out" \
            && ! grep -q "no modified files" <<< "$out"; then
            printf '%s\n' "$out"
            echo "format gate FAILED: run 'git clang-format $base'" >&2
            exit 1
        fi
        echo "changed lines are clang-format clean"
        ;;
    perf)
        banner "perf-regression gate"
        cmake -S "$repo" -B "$repo/build" > /dev/null
        cmake --build "$repo/build" -j "$jobs" --target perf_throughput
        python3 "$repo/scripts/perf_gate.py"
        ;;
    service)
        banner "campaign service (kill/resume convergence)"
        cmake -S "$repo" -B "$repo/build" > /dev/null
        cmake --build "$repo/build" -j "$jobs" \
            --target seesaw_tests campaign seesaw_worker \
            seesaw_store_cli
        ctest --test-dir "$repo/build" --output-on-failure \
            -R 'ResultStore|JsonValue|LeaseQueue|Service\.'
        python3 "$repo/scripts/campaign_resume_test.py" \
            --campaign-bin "$repo/build/examples/campaign" \
            --store-cli "$repo/build/tools/seesaw_store"
        ;;
    threads)
        banner "Clang thread-safety analysis"
        if ! command -v clang++ > /dev/null; then
            echo "clang++ not installed; skipping (CI runs it)"
            continue
        fi
        # SEESAW_WERROR=OFF: only the thread-safety groups are promoted
        # to errors, so a Clang-only -Wall nit cannot mask a finding.
        cmake -S "$repo" -B "$repo/build-threads" \
            -DCMAKE_CXX_COMPILER=clang++ \
            -DSEESAW_THREAD_SAFETY=ON -DSEESAW_WERROR=OFF
        cmake --build "$repo/build-threads" -j "$jobs"
        ctest --test-dir "$repo/build-threads" --output-on-failure \
            -R compile_fail
        ;;
    analyze)
        banner "seesaw-analyze whole-program invariants"
        cmake -S "$repo" -B "$repo/build" > /dev/null
        cmake --build "$repo/build" -j "$jobs"
        # Always-run halves: facts-level mutation tests + escape
        # policing; the extraction fixture SKIPs without Clang dev
        # packages and ctest reports that visibly.
        ctest --test-dir "$repo/build" --output-on-failure \
            -R 'lint_analyze|lint_nolint_policy'
        if [ -x "$repo/build/tools/seesaw_extract" ]; then
            python3 "$repo/scripts/analyze.py" --werror
            python3 "$repo/scripts/config_hash_drift.py"
        else
            echo "seesaw_extract not built (Clang dev packages" \
                "missing); skipping whole-program extract (CI runs it)"
        fi
        ;;
    *)
        echo "unknown stage: $stage" >&2
        echo "stages: default audit-off asan-ubsan tsan tidy lint" \
            "format perf service threads analyze" >&2
        exit 1
        ;;
    esac
done

banner "all requested stages passed"

#!/usr/bin/env bash
# The CI gauntlet: every gate the repo holds itself to, in one script.
#
#   ci/check.sh            run everything
#   ci/check.sh tier1      just the tier-1 build + tests
#   ci/check.sh sanitize   ASan+UBSan build + tests (contracts on)
#   ci/check.sh strict     the lint builds: -Werror -Wconversion with
#                          the default compiler, the raw-lock-
#                          primitive ban (src/scalo must lock through
#                          the annotated wrappers only), and the
#                          Clang -Wthread-safety -Werror analysis
#                          build (clang++ required; set
#                          SCALO_TSA_OPTIONAL=1 to tolerate absence)
#   ci/check.sh negative   misuse must FAIL to compile: units bugs
#                          AND the thread-safety suite (unguarded
#                          read/write, missing release, REQUIRES
#                          violation under clang -Wthread-safety;
#                          rank inversion under any compiler)
#   ci/check.sh tidy       clang-tidy over the library (FAILS when
#                          clang-tidy is absent unless
#                          SCALO_TIDY_OPTIONAL=1)
#   ci/check.sh bench      run bench_micro_kernels + bench_chaos in a
#                          Release tree with the bench -march
#                          (SCALO_BENCH_MARCH, default native) and
#                          refresh the BENCH_kernels.json and
#                          BENCH_chaos.json baselines. The curated
#                          ci/bench_gate.json subset of the kernel
#                          benches is ENFORCED — a regression beyond
#                          SCALO_BENCH_TOLERANCE (default 0.25) fails
#                          the gate; everything else, and all of
#                          bench_chaos, stays report-only
#   ci/check.sh scalar     forced-scalar build (SCALO_SIMD=SCALAR):
#                          full test suite (bit-identical to the wide
#                          build by the pack contract), the SIMD
#                          parity suites under ASan+UBSan, and a
#                          compare-only bench run proving the
#                          enforced gate stays green in a scalar tree
#   ci/check.sh trace      run a small SystemSim scenario, export the
#                          Chrome trace JSON, validate its structure
#                          with ci/validate_trace.py
#   ci/check.sh tsan       ThreadSanitizer build + the simulation
#                          runtime tests
#   ci/check.sh scale      hierarchical-fabric gate: the cluster/
#                          decomposed-scheduler/parallel-parity
#                          suites under TSan, a 256-node clustered
#                          smoke run with the trace validated
#                          (relay/backbone events required), and a
#                          report-only BENCH_scaling.json comparison
#   ci/check.sh serve      Release build of the serving runtime:
#                          load-generator smoke (>=1000 concurrent
#                          queries under a chaos plan, zero hangs,
#                          bounded rejection rate, valid coverage on
#                          partial results), serve_test, and a
#                          BENCH_serve.json refresh (report-only)
#   ci/check.sh chaos      seeded fault-injection matrix under
#                          ASan+UBSan: faults_test plus every
#                          example_chaos_run scenario, each exported
#                          trace validated (fault events required)
#
# Gates are independent build trees (build-ci-*) so the developer's
# ./build is never touched.

set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
FAILURES=()

note() { printf '\n=== %s ===\n' "$*"; }

run_gate() { # name, function
    local name="$1"
    shift
    note "gate: $name"
    if "$@"; then
        printf -- '--- %s: OK\n' "$name"
    else
        printf -- '--- %s: FAILED\n' "$name"
        FAILURES+=("$name")
    fi
}

configure_build_test() { # builddir, cmake args...
    local dir="$ROOT/$1"
    shift
    cmake -S "$ROOT" -B "$dir" "$@" >/dev/null &&
        cmake --build "$dir" -j "$JOBS" &&
        ctest --test-dir "$dir" -j "$JOBS" --output-on-failure
}

gate_tier1() {
    configure_build_test build-ci-tier1 \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
}

gate_sanitize() {
    # Contracts are forced on by CMake whenever SCALO_SANITIZE is set;
    # halt_on_error makes UBSan findings fail the ctest run instead of
    # scrolling past.
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
        ASAN_OPTIONS="detect_leaks=1" \
        configure_build_test build-ci-asan \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DSCALO_SANITIZE=address,undefined \
        -DSCALO_WERROR=ON
}

gate_strict() {
    local dir="$ROOT/build-ci-strict"
    cmake -S "$ROOT" -B "$dir" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DSCALO_WERROR=ON -DSCALO_WCONVERSION=ON >/dev/null &&
        cmake --build "$dir" -j "$JOBS" --target scalo_core ||
        return 1
    check_lock_primitives && check_thread_safety
}

check_lock_primitives() {
    # Locking in src/scalo goes through the annotated ranked wrappers
    # (util/thread_annotations.hpp, the one file allowed to name the
    # raw primitives). A bare std::mutex has no rank and no
    # SCALO_GUARDED_BY contract, so it fails the pipeline here.
    local hits
    hits=$(grep -rn --include='*.hpp' --include='*.cpp' \
        -e 'std::mutex' -e 'std::shared_mutex' \
        -e 'std::recursive_mutex' -e 'std::condition_variable' \
        -e 'std::lock_guard' -e 'std::unique_lock' \
        -e 'std::scoped_lock' \
        "$ROOT/src/scalo" |
        grep -v 'util/thread_annotations\.hpp')
    if [ -n "$hits" ]; then
        echo "raw lock primitives outside util/thread_annotations.hpp"
        echo "(use util::RankedMutex/MutexLock/ConditionVariable):"
        printf '%s\n' "$hits"
        return 1
    fi
    echo "lock-primitive ban holds (annotated wrappers only)"
}

check_thread_safety() {
    # The compile-time half of the concurrency contract: Clang's
    # -Wthread-safety over every annotated subsystem, promoted to an
    # error. Needs clang++; its absence fails the gate so the
    # analysis cannot rot silently (SCALO_TSA_OPTIONAL=1 opts out,
    # e.g. on a GCC-only box — see README).
    if ! command -v clang++ >/dev/null 2>&1; then
        if [ "${SCALO_TSA_OPTIONAL:-0}" = "1" ]; then
            echo "clang++ not installed; SKIPPING -Wthread-safety" \
                "analysis (SCALO_TSA_OPTIONAL=1)"
            return 0
        fi
        echo "clang++ not installed: the -Wthread-safety analysis" \
            "cannot run. Install clang or set SCALO_TSA_OPTIONAL=1" \
            "to accept the gap."
        return 1
    fi
    local dir="$ROOT/build-ci-thread-safety"
    cmake -S "$ROOT" -B "$dir" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_COMPILER=clang++ \
        -DSCALO_WERROR=ON -DSCALO_WTHREAD_SAFETY=ON >/dev/null &&
        cmake --build "$dir" -j "$JOBS" --target scalo_core
}

gate_negative() {
    negative_units && negative_thread_safety
}

negative_units() {
    # The dimensional-analysis layer's whole point: unit misuse is a
    # compile error. Each marked line in units_test.cpp must fail.
    local out
    if out=$(cd "$ROOT" && g++ -std=c++20 -fsyntax-only \
        -DSCALO_NEGATIVE_COMPILE_TEST \
        -I src -I tests -I "$(pkg-config --variable=includedir gtest \
            2>/dev/null || echo /usr/include)" \
        tests/units_test.cpp 2>&1); then
        echo "negative-compile test COMPILED: units no longer reject misuse"
        return 1
    fi
    local errors
    errors=$(printf '%s' "$out" | grep -c 'error:')
    if [ "$errors" -lt 4 ]; then
        echo "expected >=4 unit-misuse errors, got $errors:"
        printf '%s\n' "$out" | head -20
        return 1
    fi
    echo "unit misuse rejected with $errors compile errors (>=4 expected)"
}

ts_negative_compile() { # compiler, case-number, extra flags...
    local cxx="$1" num="$2"
    shift 2
    (cd "$ROOT" && "$cxx" -std=c++20 -fsyntax-only "$@" \
        -DSCALO_TS_NEGATIVE_CASE="$num" \
        -I src tests/thread_safety_negative.cpp 2>&1)
}

negative_thread_safety() {
    # Concurrency misuse is a compile error too. Case 4 (rank
    # inversion through OrderedLockPair) trips a static_assert, so it
    # fails under ANY compiler; cases 1/2/3/5 (unguarded read,
    # unguarded write, missing release, REQUIRES violation) need
    # Clang's -Wthread-safety, and case 0 proves correct code still
    # compiles clean under the analysis at -Werror.
    local out
    if out=$(ts_negative_compile "${CXX:-g++}" 4); then
        echo "rank inversion COMPILED: OrderedLockPair no longer" \
            "enforces ascending ranks"
        printf '%s\n' "$out" | head -10
        return 1
    fi
    echo "rank inversion rejected (OrderedLockPair static_assert)"

    if ! command -v clang++ >/dev/null 2>&1; then
        if [ "${SCALO_TSA_OPTIONAL:-0}" = "1" ]; then
            echo "clang++ not installed; SKIPPING -Wthread-safety" \
                "negative cases 0-3,5 (SCALO_TSA_OPTIONAL=1)"
            return 0
        fi
        echo "clang++ not installed: thread-safety negative cases" \
            "cannot run. Install clang or set SCALO_TSA_OPTIONAL=1" \
            "to accept the gap."
        return 1
    fi

    local tsa_flags=(-Wthread-safety -Werror)
    if ! out=$(ts_negative_compile clang++ 0 "${tsa_flags[@]}"); then
        echo "thread-safety positive case (0) FAILED to compile:"
        printf '%s\n' "$out" | head -20
        return 1
    fi
    local num label
    for num in 1 2 3 5; do
        case "$num" in
        1) label="unguarded read" ;;
        2) label="unguarded write" ;;
        3) label="missing release" ;;
        5) label="REQUIRES violation" ;;
        esac
        if out=$(ts_negative_compile clang++ "$num" \
            "${tsa_flags[@]}"); then
            echo "thread-safety case $num ($label) COMPILED: the" \
                "analysis no longer rejects it"
            return 1
        fi
    done
    echo "thread-safety misuse rejected (cases 1,2,3,5 under clang" \
        "-Wthread-safety -Werror; positive case 0 clean)"
}

annotate_bench_json() { # file
    # google-benchmark stamps "library_build_type" with the build of
    # the *benchmark library* (debug on this distro), which reads as
    # if the kernels were measured unoptimised. Annotate it in place;
    # scalo_build_type (from gbench_main.cpp) is the authoritative
    # field.
    python3 - "$1" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path, "r", encoding="utf-8") as fh:
    data = json.load(fh)
ctx = data.get("context", {})
if "library_build_type" in ctx:
    ctx["library_build_type_note"] = (
        "library_build_type describes the google-benchmark library's "
        "own build, not the scalo kernels; scalo_build_type is the "
        "authoritative field")
with open(path, "w", encoding="utf-8") as fh:
    json.dump(data, fh, indent=2)
    fh.write("\n")
EOF
}

bench_compare() { # builddir, target, baseline, refresh|compare, args…
    # Run one google-benchmark binary, diff its JSON against the
    # committed baseline (extra args go to compare_bench.py — e.g.
    # --enforce for the curated failing subset), and in refresh mode
    # update the working-tree baseline so a deliberate perf change is
    # committed alongside the code. A failing enforced comparison
    # leaves the baseline untouched.
    local dir="$1" target="$2" baseline="$3" action="$4"
    shift 4
    local fresh="$dir/$baseline"
    "$dir/bench/$target" \
        --benchmark_format=console \
        --benchmark_out="$fresh" \
        --benchmark_out_format=json || return 1
    annotate_bench_json "$fresh" || return 1

    # Compare against the baseline as committed, not the working tree,
    # so re-running the gate never compares a file with itself.
    local committed="$dir/${baseline%.json}.committed.json"
    if git -C "$ROOT" show "HEAD:$baseline" \
        >"$committed" 2>/dev/null; then
        python3 "$ROOT/ci/compare_bench.py" "$committed" "$fresh" \
            --tolerance "${SCALO_BENCH_TOLERANCE:-0.25}" "$@" ||
            return 1
    else
        echo "no committed $baseline baseline; creating one"
    fi
    if [ "$action" = refresh ]; then
        cp "$fresh" "$ROOT/$baseline"
        echo "refreshed $baseline (commit it to move the baseline)"
    fi
}

bench_refresh() { # builddir, target, baseline-name, compare args…
    bench_compare "$1" "$2" "$3" refresh "${@:4}"
}

gate_bench() {
    # Perf gate: build the microbenches in full Release with the bench
    # -march and -Werror (a warning only the Release optimiser sees
    # fails here; kernel numbers track the machine's best ISA; regenerate
    # the baselines when moving boxes — see README). The curated
    # ci/bench_gate.json subset of bench_micro_kernels is enforced —
    # regressions there fail the gate — while the rest, and all of
    # bench_chaos, stays report-only.
    local dir="$ROOT/build-ci-bench"
    cmake -S "$ROOT" -B "$dir" \
        -DCMAKE_BUILD_TYPE=Release \
        -DSCALO_WERROR=ON \
        -DSCALO_MARCH="${SCALO_BENCH_MARCH:-native}" >/dev/null &&
        cmake --build "$dir" -j "$JOBS" \
            --target bench_micro_kernels bench_chaos ||
        return 1
    bench_refresh "$dir" bench_micro_kernels BENCH_kernels.json \
        --enforce "$ROOT/ci/bench_gate.json" --require-release &&
        bench_refresh "$dir" bench_chaos BENCH_chaos.json \
            --require-release
}

gate_scalar() {
    # The forced-scalar half of the SIMD parity contract
    # (util/simd.hpp): SCALO_SIMD=SCALAR swaps every pack for the
    # plain-loop implementation with identical lane structure, so the
    # full test suite — including the exact parity expectations in
    # simd_test/kernels_test — must pass unchanged.
    configure_build_test build-ci-scalar \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DSCALO_SIMD=SCALAR || return 1

    # The parity suites again under ASan+UBSan (contracts forced on):
    # remainder-lane and padding bugs in the scalar fallback surface
    # here, not in the wide build.
    local asan="$ROOT/build-ci-scalar-asan"
    cmake -S "$ROOT" -B "$asan" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DSCALO_SIMD=SCALAR \
        -DSCALO_SANITIZE=address,undefined \
        -DSCALO_WERROR=ON >/dev/null &&
        cmake --build "$asan" -j "$JOBS" \
            --target simd_test kernels_test || return 1
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
        ASAN_OPTIONS="detect_leaks=1" \
        "$asan/tests/simd_test" || return 1
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
        ASAN_OPTIONS="detect_leaks=1" \
        "$asan/tests/kernels_test" || return 1

    # The enforced bench gate must stay green in a scalar tree:
    # compare_bench.py detects the wide-baseline/scalar-current mode
    # mismatch and downgrades to report-only (compare-only run — a
    # scalar tree must never move the committed wide baselines).
    local dir="$ROOT/build-ci-scalar-bench"
    cmake -S "$ROOT" -B "$dir" \
        -DCMAKE_BUILD_TYPE=Release \
        -DSCALO_SIMD=SCALAR >/dev/null &&
        cmake --build "$dir" -j "$JOBS" \
            --target bench_micro_kernels || return 1
    bench_compare "$dir" bench_micro_kernels BENCH_kernels.json \
        compare --enforce "$ROOT/ci/bench_gate.json" \
        --require-release
}

gate_trace() {
    # End-to-end observability check: schedule + simulate a small
    # system, export the event trace, and validate the Chrome JSON
    # invariants Perfetto relies on.
    local dir="$ROOT/build-ci-tier1"
    cmake -S "$ROOT" -B "$dir" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null &&
        cmake --build "$dir" -j "$JOBS" \
            --target example_simulate_system || return 1
    local trace="$dir/system_trace.json"
    "$dir/examples/example_simulate_system" --trace "$trace" ||
        return 1
    python3 "$ROOT/ci/validate_trace.py" "$trace"
}

gate_scale() {
    # The hierarchical-fabric scale gate. Three legs: (1) TSan over
    # the cluster/scheduler/parallel-parity suites — the conservative
    # engine's byte-identity claim is also a no-data-race claim, so
    # the parity tests must pass under the race detector; (2) a
    # 256-node clustered smoke run, traced and validated with the
    # relay/backbone event kinds required; (3) the BENCH_scaling.json
    # scaling curve regenerated in Release and compared report-only
    # (scaling numbers inform, they never gate).
    local tsan="$ROOT/build-ci-tsan"
    cmake -S "$ROOT" -B "$tsan" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DSCALO_SANITIZE=thread >/dev/null &&
        cmake --build "$tsan" -j "$JOBS" \
            --target cluster_test sched_scale_test \
            parallel_sim_test &&
        ctest --test-dir "$tsan" -j "$JOBS" --output-on-failure \
            -R '^(ClusterPlan|SchedScale|ParallelSim)' || return 1

    note "256-node clustered smoke (trace validated)"
    local dir="$ROOT/build-ci-tier1"
    cmake -S "$ROOT" -B "$dir" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null &&
        cmake --build "$dir" -j "$JOBS" \
            --target example_simulate_system || return 1
    local trace="$dir/scale_trace.json"
    "$dir/examples/example_simulate_system" \
        --nodes 256 --clusters 16 --threads 0 \
        --duration 100 --trace "$trace" || return 1
    python3 "$ROOT/ci/validate_trace.py" "$trace" \
        --require-cluster-events || return 1

    note "scaling curve (report-only)"
    local bdir="$ROOT/build-ci-bench"
    cmake -S "$ROOT" -B "$bdir" \
        -DCMAKE_BUILD_TYPE=Release \
        -DSCALO_MARCH="${SCALO_BENCH_MARCH:-native}" >/dev/null &&
        cmake --build "$bdir" -j "$JOBS" --target bench_scaling ||
        return 1
    bench_compare "$bdir" bench_scaling BENCH_scaling.json compare \
        --require-release
}

gate_tsan() {
    # TSan guards the boundaries where threads share state: the
    # thread pool's spin-then-block hand-offs, the trace export's
    # chunk ring (TraceFormat), and the parallel query runtime next
    # to the simulation runtime.
    local dir="$ROOT/build-ci-tsan"
    cmake -S "$ROOT" -B "$dir" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DSCALO_SANITIZE=thread >/dev/null &&
        cmake --build "$dir" -j "$JOBS" \
            --target sim_test system_sim_test \
            query_concurrency_test serve_concurrency_test &&
        ctest --test-dir "$dir" -j "$JOBS" --output-on-failure \
            -R '^(Simulator|SystemSim|TraceFormat|NetworkErrors|HashEncodingDelay|NetworkBerDelay|ThreadPool|ShardedQuery|QueryServer)'
}

gate_serve() {
    # The serving-runtime smoke: a Release build (the load numbers
    # only mean something optimized), the serve unit tests, the load
    # generator sustaining >=1000 concurrent mixed queries while the
    # chaos plan crashes nodes — the binary itself enforces the
    # contract (zero hangs, bounded rejection rate, valid coverage on
    # partial results) through its exit code — and a report-only
    # BENCH_serve.json refresh.
    local dir="$ROOT/build-ci-serve"
    cmake -S "$ROOT" -B "$dir" \
        -DCMAKE_BUILD_TYPE=Release >/dev/null &&
        cmake --build "$dir" -j "$JOBS" \
            --target serve_test example_load_generator \
            bench_serve || return 1

    "$dir/tests/serve_test" || return 1

    note "serve load smoke (chaos plan)"
    "$dir/examples/example_load_generator" \
        --queries 4000 --inflight 1200 --min-inflight 1000 \
        --max-reject-rate 0.5 || return 1

    bench_refresh "$dir" bench_serve BENCH_serve.json
}

gate_chaos() {
    # The fault matrix: the fault-framework tests plus every
    # example_chaos_run scenario, under ASan+UBSan with contracts on
    # (SCALO_SANITIZE forces them), each exported trace validated —
    # including that the failure story actually made it into the
    # trace. Scenarios are seeded and deterministic, so this gate is
    # never flaky.
    local dir="$ROOT/build-ci-asan"
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
        ASAN_OPTIONS="detect_leaks=1" \
        cmake -S "$ROOT" -B "$dir" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DSCALO_SANITIZE=address,undefined \
        -DSCALO_WERROR=ON >/dev/null &&
        cmake --build "$dir" -j "$JOBS" \
            --target faults_test example_chaos_run || return 1

    "$dir/tests/faults_test" || return 1

    local scenario trace
    for scenario in crash dropout nvm throttle combined; do
        note "chaos scenario: $scenario"
        trace="$dir/chaos_${scenario}.json"
        "$dir/examples/example_chaos_run" \
            --scenario "$scenario" --duration 2400 --threads 1 \
            --trace "$trace" || return 1
        # Every scenario marks at least its injection instants, so
        # fault events are required across the whole matrix.
        python3 "$ROOT/ci/validate_trace.py" "$trace" \
            --require-fault-events || return 1
    done

    # The hierarchical scenarios (backbone partition, relay crash)
    # exercise the failover/re-stitch path; their traces must carry
    # the cluster-fabric events (relay-failover, partition-start/
    # healed, backbone-restitch pairing is validated too).
    for scenario in partition relay-crash; do
        note "chaos scenario: $scenario"
        trace="$dir/chaos_${scenario}.json"
        "$dir/examples/example_chaos_run" \
            --scenario "$scenario" --duration 2400 --threads 1 \
            --trace "$trace" || return 1
        python3 "$ROOT/ci/validate_trace.py" "$trace" \
            --require-fault-events --require-cluster-events ||
            return 1
    done

    # The same scenarios at the default width (one runner per CPU for
    # the engine and the export), under TSan: relay failover and
    # backbone re-stitching run at the quantum barriers where worker
    # threads hand off to the coordinator, exactly the boundary the
    # race detector must clear. Traces must come out byte-identical
    # to the serial (--threads 1) runs above.
    local tsan="$ROOT/build-ci-tsan"
    cmake -S "$ROOT" -B "$tsan" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DSCALO_SANITIZE=thread >/dev/null &&
        cmake --build "$tsan" -j "$JOBS" \
            --target example_chaos_run || return 1
    for scenario in partition relay-crash; do
        note "chaos scenario (parallel, TSan): $scenario"
        trace="$tsan/chaos_${scenario}_parallel.json"
        "$tsan/examples/example_chaos_run" \
            --scenario "$scenario" --duration 2400 --threads 0 \
            --trace "$trace" || return 1
        cmp "$dir/chaos_${scenario}.json" "$trace" || {
            echo "chaos: $scenario parallel trace differs from" \
                "the serial trace"
            return 1
        }
    done
}

gate_tidy() {
    if ! command -v clang-tidy >/dev/null 2>&1; then
        if [ "${SCALO_TIDY_OPTIONAL:-0}" = "1" ]; then
            echo "clang-tidy not installed; SKIPPING the tidy gate" \
                "(SCALO_TIDY_OPTIONAL=1)"
            return 0
        fi
        echo "clang-tidy not installed: the lint gate cannot run." \
            "Install clang-tidy or set SCALO_TIDY_OPTIONAL=1 to" \
            "accept the gap."
        return 1
    fi
    local dir="$ROOT/build-ci-tidy"
    cmake -S "$ROOT" -B "$dir" \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null || return 1
    find "$ROOT/src/scalo" -name '*.cpp' -print0 |
        xargs -0 -n 8 -P "$JOBS" clang-tidy -p "$dir" --quiet
}

main() {
    local what="${1:-all}"
    case "$what" in
    tier1) run_gate tier1 gate_tier1 ;;
    sanitize) run_gate sanitize gate_sanitize ;;
    strict) run_gate strict gate_strict ;;
    negative) run_gate negative gate_negative ;;
    tidy) run_gate tidy gate_tidy ;;
    bench) run_gate bench gate_bench ;;
    scalar) run_gate scalar gate_scalar ;;
    trace) run_gate trace gate_trace ;;
    tsan) run_gate tsan gate_tsan ;;
    scale) run_gate scale gate_scale ;;
    serve) run_gate serve gate_serve ;;
    chaos) run_gate chaos gate_chaos ;;
    all)
        run_gate tier1 gate_tier1
        run_gate sanitize gate_sanitize
        run_gate strict gate_strict
        run_gate negative gate_negative
        run_gate tidy gate_tidy
        run_gate bench gate_bench
        run_gate scalar gate_scalar
        run_gate trace gate_trace
        run_gate tsan gate_tsan
        run_gate scale gate_scale
        run_gate serve gate_serve
        run_gate chaos gate_chaos
        ;;
    *)
        echo "usage: ci/check.sh [tier1|sanitize|strict|negative|tidy|bench|scalar|trace|tsan|scale|serve|chaos|all]"
        exit 2
        ;;
    esac

    if [ "${#FAILURES[@]}" -gt 0 ]; then
        note "FAILED gates: ${FAILURES[*]}"
        exit 1
    fi
    note "all gates passed"
}

main "$@"

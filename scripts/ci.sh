#!/usr/bin/env bash
# Reference CI recipe: configure + build + test one or more presets.
# With no arguments the default sweep runs the Release preset, the
# AddressSanitizer preset (heap/stack bugs in the checkpoint and snapshot
# I/O paths would otherwise only surface as flaky corruption), then the
# UBSan preset (the intrinsics-heavy moment kernels and bit-manipulating
# recorders are where signed overflow and misaligned loads would hide);
# pass explicit preset names to run a subset, e.g. `scripts/ci.sh release`
# or `scripts/ci.sh asan tsan ubsan`.  Exits nonzero on any build or test
# failure.
#
# The release and asan legs smoke per-net leakage attribution end to end
# (examples/inspect_gadget trichina --attribute) and rerun the suite with
# GLITCHMASK_BACKEND=compiled, so every campaign-level test also covers
# the compiled replay engine (memory bugs in its wide-lane state would
# otherwise only surface in benches).  Both legs also run the daemon
# chaos smoke (scripts/chaos_smoke.sh): glitchmaskd under seeded
# fault-injection schedules -- EINTR storms, checkpoint ENOSPC, SIGTERM
# mid-campaign -- must complete bit-identically, degrade gracefully, and
# resume from its spool.  Both legs also smoke the results ledger
# (glitchmask_ledger): the attribution smoke's run report is ingested
# twice and `diff` must prove every leakage field bit-identical (exit 0)
# -- under asan this also leak-checks the whole obs/ stack.  The release
# leg additionally gates observability and performance:
#   * one extra ctest pass under GLITCHMASK_LOG=debug (log call sites in
#     the hot paths must never change a result or crash);
#   * one extra ctest pass under GLITCHMASK_SIMD=off, pinning every
#     runtime-dispatched kernel to its portable scalar fallback (the
#     bit-identity tests then prove scalar == vector end to end);
#   * bench/campaign_throughput's overhead/speedup figures are bounds-
#     checked through `glitchmask_ledger gate` (telemetry <= 3%,
#     tracing-off <= 1%, tracing-on <= 5%, attribution-off <= 1%,
#     attribution-on <= 30%, compiled_speedup_1worker >= 2x,
#     stats_speedup >= 1.5x -- same bars the awk gates used to enforce);
#   * the ledger regression radar is exercised end to end: the bench
#     artifact is ingested twice (diff must exit 0, leakage
#     bit-identical), then a deliberately perturbed copy is ingested and
#     `diff` must exit with the regression code (3);
#   * the benchmark (perfbench/, its own CMake project over src/) is
#     built into build-perfbench/ and its self-tests run
#     (perfbench/test_run.py).
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
if [ "${#presets[@]}" -eq 0 ]; then
  presets=(release asan ubsan)
fi
for preset in "${presets[@]}"; do
  case "$preset" in
    release|asan|tsan|ubsan) ;;
    *) echo "usage: scripts/ci.sh [release|asan|tsan|ubsan ...]" >&2; exit 2 ;;
  esac
done

jobs="$(nproc 2>/dev/null || echo 2)"

for preset in "${presets[@]}"; do
  echo "==> preset: $preset"
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$jobs"
  ctest --preset "$preset" -j "$jobs"

  if [ "$preset" = "release" ] || [ "$preset" = "asan" ]; then
    builddir="build"
    [ "$preset" = "asan" ] && builddir="build-asan"
    echo "==> $preset extras: attribution smoke (inspect_gadget trichina)"
    report_dir="$(mktemp -d)"
    (cd "$builddir/examples" &&
      GLITCHMASK_REPORT_DIR="$report_dir" \
        ./inspect_gadget trichina --attribute --top-k 5 > /dev/null)

    echo "==> $preset extras: results-ledger smoke (run-report ingest + diff)"
    # Same report ingested twice: the diff must find two same-fingerprint
    # entries and prove every leakage field bit-identical (exit 0).
    # Under asan this drives the whole obs/ stack through the sanitizer.
    ledger="$report_dir/ci-ledger.ndjson"
    "$builddir"/src/glitchmask_ledger ingest "$ledger" \
      "$report_dir"/*.report.json > /dev/null
    "$builddir"/src/glitchmask_ledger ingest "$ledger" \
      "$report_dir"/*.report.json > /dev/null
    ledger_diff="$("$builddir"/src/glitchmask_ledger diff "$ledger")"
    if ! echo "$ledger_diff" | grep -q "leakage bit-identical"; then
      echo "FAIL: ledger diff did not prove leakage bit-identity:" >&2
      echo "$ledger_diff" >&2
      exit 1
    fi
    "$builddir"/src/glitchmask_ledger list "$ledger" > /dev/null
    rm -rf "$report_dir"

    echo "==> $preset extras: suite under GLITCHMASK_BACKEND=compiled"
    GLITCHMASK_BACKEND=compiled ctest --preset "$preset" -j "$jobs"

    echo "==> $preset extras: daemon chaos smoke (seeded fault sweep)"
    scripts/chaos_smoke.sh "$builddir"
  fi

  if [ "$preset" = "release" ]; then
    echo "==> release extras: suite under GLITCHMASK_LOG=debug"
    GLITCHMASK_LOG=debug ctest --preset "$preset" -j "$jobs"

    echo "==> release extras: suite under GLITCHMASK_SIMD=off (scalar kernels)"
    GLITCHMASK_SIMD=off ctest --preset "$preset" -j "$jobs"

    echo "==> release extras: bench overhead + speedup gates"
    # 256 traces: large enough that the per-block amortizations (spill
    # staging, checkpoint cadence) are representative and the off-vs-off
    # noise floor sits well under the 1% bar.
    (cd build/bench && GLITCHMASK_TRACES=256 ./campaign_throughput > /dev/null)
    build/src/glitchmask_ledger gate build/bench/BENCH_batch_sim.json \
      --max telemetry_overhead=0.03 \
      --max trace_off_overhead=0.01 \
      --max trace_overhead=0.05 \
      --max attribution_off_overhead=0.01 \
      --max attribution_overhead=0.30 \
      --min compiled_speedup_1worker=2.0 \
      --min stats_speedup=1.5

    echo "==> release extras: ledger regression radar (bench ingest + diff)"
    radar_dir="$(mktemp -d)"
    radar_ledger="$radar_dir/bench-ledger.ndjson"
    # Twice the same artifact: every leakage field must prove
    # bit-identical and diff must exit 0.
    build/src/glitchmask_ledger ingest "$radar_ledger" \
      build/bench/BENCH_batch_sim.json > /dev/null
    build/src/glitchmask_ledger ingest "$radar_ledger" \
      build/bench/BENCH_batch_sim.json > /dev/null
    radar_out="$(build/src/glitchmask_ledger diff "$radar_ledger")"
    if ! echo "$radar_out" | grep -q "leakage bit-identical"; then
      echo "FAIL: bench ledger diff did not prove bit-identity:" >&2
      echo "$radar_out" >&2
      exit 1
    fi
    # A perturbed copy (leakage headline changed, timestamp bumped so it
    # sorts newest) must trip the radar: diff exits with the regression
    # code, nothing else.
    sed -e 's/"max_abs_t1": [-0-9.eE+]*/"max_abs_t1": 99.5/' \
        -e 's/"utc": "[^"]*"/"utc": "2999-12-31T23:59:59Z"/' \
      build/bench/BENCH_batch_sim.json > "$radar_dir/perturbed.json"
    build/src/glitchmask_ledger ingest "$radar_ledger" \
      "$radar_dir/perturbed.json" > /dev/null
    set +e
    build/src/glitchmask_ledger diff "$radar_ledger" > /dev/null
    radar_rc=$?
    set -e
    if [ "$radar_rc" -ne 3 ]; then
      echo "FAIL: perturbed ledger diff exited $radar_rc, wanted 3" >&2
      exit 1
    fi
    echo "ledger radar: bit-identity proven, perturbation tripped (exit 3)"
    rm -rf "$radar_dir"

    echo "==> release extras: benchmark build + self-tests (perfbench/)"
    # The benchmark is its own CMake project over src/: building it here
    # makes an eval/ API change that breaks it fail CI, not the benchmark.
    cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release
    cmake --build build-perfbench -j "$jobs" --target glitchmask_perfbench
    python3 perfbench/test_run.py
  fi
done

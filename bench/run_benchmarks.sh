#!/usr/bin/env bash
# Builds the Release benchmark binaries, runs the baseline-vs-optimized
# kernel suite, the serial-vs-parallel suite, and the serving-layer suite,
# and distills the results into BENCH_kernels.json + BENCH_parallel.json +
# BENCH_service.json at the repository root (see EXPERIMENTS.md for
# methodology).
#
# Usage:
#   bench/run_benchmarks.sh           # full run, refreshes the committed
#                                     # BENCH_*.json files
#   bench/run_benchmarks.sh --smoke   # quick CI pass; writes into the build
#                                     # dir only, never touches the committed
#                                     # JSON files
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-bench}
SMOKE=0
if [[ "${1:-}" == "--smoke" ]]; then
  SMOKE=1
fi

# Recorded as machine.build_type in every distilled file.
BUILD_TYPE=Release
CMAKE_ARGS=(-DCMAKE_BUILD_TYPE="$BUILD_TYPE")
if command -v ccache >/dev/null; then
  CMAKE_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi
cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}" >/dev/null
cmake --build "$BUILD_DIR" --target bench_report bench_parallel \
  bench_service -j"$(nproc)" >/dev/null

BENCH_ARGS=(--benchmark_format=json)
# The parallel suite repeats every benchmark and the distiller keeps the
# per-cell minimum: these kernels are short enough that neighbor load on
# a shared machine dominates single-run noise, and the minimum is the
# least-contended estimate (same treatment for both sides of each
# comparison).
PAR_ARGS=(--benchmark_format=json --benchmark_repetitions=5)
SVC_ARGS=(--benchmark_format=json)
if [[ "$SMOKE" == 1 ]]; then
  # Smallest tier of each op, minimal sampling: validates the harness and
  # the distiller without burning CI minutes. 64 is the smallest SIMD
  # word tier in bench_parallel.
  BENCH_ARGS+=(--benchmark_filter='/(8|16|1000)$' --benchmark_min_time=0.01)
  PAR_ARGS+=(--benchmark_filter='/(64|10000)$' --benchmark_min_time=0.01
             --benchmark_repetitions=1)
  # The iterations-suffix alternative keeps the pinned-iteration
  # BM_net_saturation/12 tier in the smoke.
  SVC_ARGS+=(--benchmark_filter='/(12|64|256)(/iterations:[0-9]+)?$'
             --benchmark_min_time=0.01)
  OUT=$BUILD_DIR/BENCH_kernels.smoke.json
  PAR_OUT=$BUILD_DIR/BENCH_parallel.smoke.json
  SVC_OUT=$BUILD_DIR/BENCH_service.smoke.json
  LABEL="smoke"
  PAR_LABEL="smoke"
  SVC_LABEL="smoke"
else
  OUT=BENCH_kernels.json
  PAR_OUT=BENCH_parallel.json
  SVC_OUT=BENCH_service.json
  LABEL="flat-storage + bitset + SIMD kernels vs frozen scalar references"
  PAR_LABEL="partitioned parallel natural join vs serial NaturalJoin"
  SVC_LABEL="serving layer: hit/miss latency, replay hit rate, overload shed, two-node loopback saturation"
fi

# Run every suite first: the kernels distill merges bench_report's pairs
# with bench_parallel's SIMD-vs-scalar pairs, so it needs both raws.
RAW=$BUILD_DIR/bench_report.raw.json
"$BUILD_DIR/bench/bench_report" "${BENCH_ARGS[@]}" > "$RAW"

PAR_RAW=$BUILD_DIR/bench_parallel.raw.json
"$BUILD_DIR/bench/bench_parallel" "${PAR_ARGS[@]}" > "$PAR_RAW"

SVC_RAW=$BUILD_DIR/bench_service.raw.json
"$BUILD_DIR/bench/bench_service" "${SVC_ARGS[@]}" > "$SVC_RAW"

python3 bench/distill_bench.py "$RAW" "$PAR_RAW" "$OUT" --label "$LABEL" \
  --build-type "$BUILD_TYPE"
echo "wrote $OUT"

python3 bench/distill_bench.py "$PAR_RAW" "$PAR_OUT" \
  --label "$PAR_LABEL" --mode parallel --build-type "$BUILD_TYPE"
echo "wrote $PAR_OUT"

python3 bench/distill_bench.py "$SVC_RAW" "$SVC_OUT" \
  --label "$SVC_LABEL" --mode service --build-type "$BUILD_TYPE"
echo "wrote $SVC_OUT"

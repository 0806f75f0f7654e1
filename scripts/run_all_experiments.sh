#!/usr/bin/env bash
# Regenerate every paper figure and ablation. Results stream to stdout;
# EXPERIMENTS.md records a captured run. Pass QUICK=1 for a fast smoke
# sweep, FULL=1 for the paper-scale grids (hours on a small machine).
set -euo pipefail
cd "$(dirname "$0")/.."
BENCH=build/bench

if [[ "${QUICK:-0}" == 1 ]]; then
  MS=150; THREADS="2,4"; FUTS="0,1,3"; LENS="100,1000"; TXLENS="100,1000"; ITERS="0,100"
elif [[ "${FULL:-0}" == 1 ]]; then
  MS=2000; THREADS="1,2,4,8,16,32,48"; FUTS="0,1,3,5,7"
  LENS="100,1000,10000"; TXLENS="10,100,1000,10000,100000"; ITERS="0,100,1000,10000"
else
  MS=600; THREADS="1,2,4,8"; FUTS="0,1,3,5,7"
  LENS="100,1000,10000"; TXLENS="10,100,1000,10000"; ITERS="0,100,1000"
fi

run() { echo; echo "===== $* ====="; "$@"; }

run $BENCH/bench_fig5a_readonly   --ms $MS --txlens $TXLENS --iters $ITERS
run $BENCH/bench_fig5b_contention --ms $MS --lens $LENS
run $BENCH/bench_fig5c_latency    --ms $MS
run $BENCH/bench_fig6_vacation    --ms $MS --threads $THREADS --futures $FUTS
run $BENCH/bench_fig6_tpcc        --ms $MS --threads $THREADS --futures $FUTS
run $BENCH/bench_ablation_ro_futures --ms $MS
run $BENCH/bench_stm_comparison      --ms $MS
run $BENCH/bench_intset              --ms $MS
run $BENCH/bench_micro_stm --benchmark_min_time=0.1

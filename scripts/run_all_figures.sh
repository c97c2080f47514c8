#!/usr/bin/env bash
# Regenerates every paper figure and ablation at full scale: builds the
# default preset (build/) and runs the program of every bench/*.cc from
# the repository root, so each rewrites its BENCH_*.json there. Programs
# left in build/bench/ by deleted sources are not run. The combined
# output goes to stdout and to the output file.
# Usage: scripts/run_all_figures.sh [output-file]  (default bench_output.txt)
# Set ESIM_BENCH_QUICK=1 for a fast smoke-test pass.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-bench_output.txt}"
cmake --preset default
cmake --build --preset default
{
  for src in bench/*.cc; do
    name="$(basename "$src" .cc)"
    echo "=== ${name} ==="
    "build/bench/${name}"
  done
} | tee "$out"

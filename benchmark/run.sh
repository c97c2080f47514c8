#!/usr/bin/env bash
# The repository benchmark. Builds benchmark/ (which compiles ../src into
# benchmark/build) and runs each workload in its own process.
#
#   benchmark/run.sh [--seed N] [--reps N] [--seconds S] [--trace [0|1]]
#                    [--workloads a,b | --workload a] [--smoke] [--out DIR]
#   benchmark/run.sh compare A.json B.json
#
#   --seed N       workload seed (default 5); the same seed gives the same inputs
#   --reps N       timed runs per workload, at least (default 5; 2 with
#                  --seconds or --smoke)
#   --seconds S    keep starting timed runs while they fit in S seconds
#   --trace [0|1]  one extra run with the telemetry registry on: per-layer
#                  metrics, span JSON and the self-time table
#   --workloads    comma-separated subset of clos8_full, clos8_hybrid_ml,
#                  clos8_adaptive_pdes2, allreduce_memo (default: all)
#   --smoke        shrunken horizons, phases and training; the pre-merge check
#   --out DIR      results directory (default benchmark/results)
#
# Each workload writes DIR/<workload>.json (and with --trace
# DIR/<workload>.trace.json); all of them are merged into DIR/results.json.
# The last line on stdout is the result object of the last workload run.
# The exit status is non-zero when a build or a correctness check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$here/build"
bin="$build/esim_benchmark"
spec="$root/BENCHMARK.json"

build_benchmark() {
  local jobs
  jobs="$(nproc 2>/dev/null || echo 2)"
  ((jobs > 4)) && jobs=4
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
  cmake --build "$build" -j "$jobs" >&2
}

if [[ "${1:-}" == "compare" ]]; then
  shift
  build_benchmark
  exec "$bin" compare "$@" --bounds "$spec"
fi

seed=5
reps=""
seconds=""
trace=0
smoke=0
workloads="clos8_full,clos8_hybrid_ml,clos8_adaptive_pdes2,allreduce_memo"
out="$here/results"
while (($#)); do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --reps) reps="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --workload | --workloads) workloads="$2"; shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi
      ;;
    --smoke) smoke=1; shift ;;
    --out) out="$2"; shift 2 ;;
    -h | --help) sed -n '2,23p' "$0"; exit 0 ;;
    *) echo "run.sh: unknown option $1" >&2; exit 2 ;;
  esac
done

build_benchmark

args=(--seed "$seed" --trace "$trace" --spec "$spec" --out "$out")
[[ -n "$seconds" ]] && args+=(--seconds "$seconds")
if [[ -n "$reps" ]]; then
  args+=(--reps "$reps")
elif ((smoke)); then
  args+=(--reps 2)
fi
((smoke)) && args+=(--smoke)

status=0
files=()
IFS=',' read -r -a names <<<"$workloads"
for w in "${names[@]}"; do
  rm -f "$out/$w.json"
  "$bin" run --workload "$w" "${args[@]}" || status=1
  files+=("$out/$w.json")
done
existing=()
for f in "${files[@]}"; do [[ -f "$f" ]] && existing+=("$f"); done
if ((${#existing[@]})); then
  "$bin" merge "$out/results.json" "${existing[@]}"
  echo "run.sh: wrote $out/results.json" >&2
fi
exit "$status"

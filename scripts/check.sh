#!/usr/bin/env bash
# Builds the default and asan-ubsan presets and runs the CTest tiers
# explicitly — unit, integration, slow — under both, then builds the
# tsan preset and runs the threaded tests (ParallelEngine, PDES
# networks, telemetry) under ThreadSanitizer. ASan catches lifetime bugs
# in the FES inline storage, UBSan misaligned placement-new and signed
# overflow, TSan races between PDES partitions — including concurrent
# logging and shared telemetry instruments.
#
# Opt-in extras:
#   ESIM_CHECK_FUZZ=1      also run the differential fuzz tier
#                          (`ctest -L fuzz`: esim_diffcheck selftest +
#                          25-scenario engine-equivalence sweep) under
#                          default and asan-ubsan.
#   ESIM_CHECK_COVERAGE=1  also build the coverage preset, run the unit
#                          + integration tiers under it, and print the
#                          src/{sim,core,telemetry,approx,flowsim,memo}
#                          line-coverage summary
#                          (scripts/coverage_summary.sh).
#
# Usage: [ESIM_CHECK_FUZZ=1] [ESIM_CHECK_COVERAGE=1] scripts/check.sh [-jN]
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="-j$(nproc)"
if [[ $# -ge 1 && $1 == -j* ]]; then
  jobs=$1
fi

tiers=(unit integration slow)
if [[ "${ESIM_CHECK_FUZZ:-0}" == "1" ]]; then
  tiers+=(fuzz)
fi

# The tiers above run whichever kernel variant the CPU dispatches to
# (ml/kernels.h). Every variant must give the same bits, so the ML suites
# — whose golden tests pin training and serving numerics — also run with
# each variant pinned: scalar and AVX2 always, AVX-512 where the CPU has
# it (ESIM_INFERENCE_ISA falls back to scalar when it does not).
ml_suites='^(Tensor|Activations|Linear|Loss|Lstm|Gru|Optimizer|Serialize|SequenceModelFactory|MicroModel|MicroModelGru|MicroModelSerialize|InferenceSession|Trainer|TrainFromTrace)\.'
isas=(scalar avx2)
if grep -qw avx512f /proc/cpuinfo; then
  isas+=(avx512)
fi

for preset in default asan-ubsan; do
  echo "=== preset: ${preset} — configure ==="
  cmake --preset "${preset}"
  echo "=== preset: ${preset} — build ==="
  cmake --build --preset "${preset}" "${jobs}"
  for tier in "${tiers[@]}"; do
    echo "=== preset: ${preset} — test tier: ${tier} ==="
    ctest --preset "${preset}" "${jobs}" -L "${tier}"
  done
  for isa in "${isas[@]}"; do
    echo "=== preset: ${preset} — ML suites, ESIM_INFERENCE_ISA=${isa} ==="
    ESIM_INFERENCE_ISA="${isa}" ctest --preset "${preset}" "${jobs}" \
      -R "${ml_suites}"
  done
done

# The six standing esim_diffcheck corpora, each closing on its corpus
# fingerprint: the all-packet fuzz sweep, the PDES scale-out sweep at the
# partition counts the scaling bench targets (graph-cut placement,
# per-pair lookahead windows, SPSC rings), hybrid engine equivalence,
# fidelity, adaptive granularity and memo. Always run this — it is the determinism
# gate, not an opt-in extra; diff its output against an older build's to
# prove a change digest-identical.
echo "=== default — esim_diffcheck corpus fingerprints ==="
scripts/fingerprints.sh build

# The inference bench doubles as a sanitizer workout for the packed
# SIMD kernels and the workspace plan. `--batch` runs only the
# sequence-mode predict_batch sweep at N in {1,4,16,64} (bit-identity
# checked against per-packet predict(), exit 1 on mismatch).
echo "=== asan-ubsan — bench_inference --batch smoke ==="
(cd build-asan && ./bench/bench_inference --batch)

# Quick sweep of the PDES scaling bench under ASan/UBSan: drives the
# partitioner, per-pair windows, and SPSC rings at 1..8 partitions with
# real TCP traffic.
echo "=== asan-ubsan — bench_pdes_scaling smoke ==="
(cd build-asan && ESIM_BENCH_QUICK=1 ./bench/bench_pdes_scaling)

# Fidelity observatory digest-invariance under the sanitizers: shadow
# sampling + queue-truth peeks + JSONL streaming must not perturb the
# simulation (full digest equality, sequential and PDES) and must be
# clean of lifetime/overflow bugs in the probe's window bookkeeping.
echo "=== asan-ubsan — esim_diffcheck fidelity smoke ==="
(cd build-asan && ./tools/esim_diffcheck fidelity --n 10 --seed 7 --partitions 2,4)

# Hybrid (approximated-cluster) engine equivalence under the sanitizers:
# ApproxCluster's key-0 deliveries into the core are the sends that most
# often land exactly on a link's departure instant, so this exercises the
# links' same-instant rule (DESIGN.md §5) across engines.
echo "=== asan-ubsan — esim_diffcheck hybrid smoke ==="
(cd build-asan && ./tools/esim_diffcheck hybrid --n 10 --seed 7 --partitions 2,3)

# Adaptive tier switching under the sanitizers: the controller's
# drain-before-switch, the fluid backend's pending-mutation buffering,
# and the tier-trace digest lane must agree across engines with no
# lifetime/overflow bugs in the backend swap.
echo "=== asan-ubsan — esim_diffcheck granularity smoke ==="
(cd build-asan && ./tools/esim_diffcheck granularity --n 10 --seed 1 --partitions 2,4)

# Phase-memoization replay equivalence under the sanitizers: the delta
# recorder's observer wrapping, the LRU cache's eviction accounting, and
# the fast-forward's FES accounting advance and reserved-sequence
# injections must keep memo-on runs digest-identical to memo-off
# (DESIGN.md §13) with no lifetime bugs in the record and replay paths.
echo "=== asan-ubsan — esim_diffcheck memo smoke ==="
(cd build-asan && ./tools/esim_diffcheck memo --n 10 --seed 7 --partitions 2,4)

# Memo bench smoke: the aggregate fast-forward speedup path plus the
# digest-attached replay path end to end under ASan, and the scaling
# gate (exit 1 when 10x the phases costs over 2x per phase — a
# per-boundary cost that grows with the run).
echo "=== asan-ubsan — bench_memo smoke ==="
(cd build-asan && ESIM_BENCH_QUICK=1 ./bench/bench_memo)

# Granularity bench smoke: trains tiny boundary models, runs the
# all-packet reference plus fixed/adaptive tier variants and the
# quiescent corpus — the fluid backend's full lifecycle under ASan.
echo "=== asan-ubsan — bench_granularity smoke ==="
(cd build-asan && ESIM_BENCH_QUICK=1 ./bench/bench_granularity)

echo "=== preset: tsan — configure ==="
cmake --preset tsan
echo "=== preset: tsan — build ==="
cmake --build --preset tsan "${jobs}"
echo "=== preset: tsan — test (threaded suites) ==="
# HybridPdes covers ApproxCluster deliveries into cores on other
# partitions.
# Fidelity suites exercise the shared FidelitySink from concurrent PDES
# partition threads (window closes append rows under the sink mutex).
# Granularity / FluidCluster cover adaptive tier switches and the fluid
# backend's deferred mutations racing cross-partition deliveries.
# Memo / PhaseCache cover the PDES memo runner: delta recording across
# partition threads (the completion log mutex) and replay between
# engine windows.
# TrainFromTrace covers train_from_trace's egress worker thread, on the
# success path and when the worker's training throws.
ctest --preset tsan "${jobs}" -R \
  'ParallelEngine|PdesBuilder|PdesNetwork|HybridPdes|TelemetryIntegration|Trace|SpscQueue|Partitioner|Fidelity|Granularity|FluidCluster|Memo|PhaseCache|TrainFromTrace'

# The memo corpus under PDES: a live phase's injections are scheduled
# from the driving thread into partitions parked between engine windows,
# and their flows complete on partition threads.
echo "=== tsan — esim_diffcheck memo smoke ==="
(cd build-tsan && ./tools/esim_diffcheck memo --n 10 --seed 7 --partitions 2,4)

if [[ "${ESIM_CHECK_COVERAGE:-0}" == "1" ]]; then
  echo "=== preset: coverage — configure ==="
  cmake --preset coverage
  echo "=== preset: coverage — build ==="
  cmake --build --preset coverage "${jobs}"
  find build-coverage -name '*.gcda' -delete
  for tier in unit integration; do
    echo "=== preset: coverage — test tier: ${tier} ==="
    ctest --preset coverage "${jobs}" -L "${tier}"
  done
  echo "=== coverage summary (src/sim, src/core, src/telemetry, src/approx, src/flowsim, src/memo) ==="
  scripts/coverage_summary.sh build-coverage
fi

echo "All presets passed."

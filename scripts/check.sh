#!/usr/bin/env bash
# Builds the default preset (warnings as errors) and the asan-ubsan
# preset and runs the CTest tiers explicitly — unit, integration, slow —
# under both, then builds the tsan preset and runs the threaded tests
# (ParallelEngine, PDES networks, telemetry) under ThreadSanitizer. ASan
# catches lifetime bugs in the FES inline storage, UBSan misaligned
# placement-new and signed overflow, TSan races between PDES partitions —
# including shared telemetry instruments.
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
# each variant pinned: scalar and AVX2 (ESIM_INFERENCE_ISA falls back to
# scalar when the CPU has no AVX2).
ml_suites='^(Tensor|Activations|Linear|Loss|Lstm|Gru|Optimizer|Serialize|SequenceModelFactory|MicroModel|MicroModelGru|MicroModelSerialize|InferenceSession|Trainer|TrainFromTrace)\.'
isas=(scalar avx2)

for preset in default asan-ubsan; do
  echo "=== preset: ${preset} — configure ==="
  # Warnings fail the default (RelWithDebInfo) build. Release builds stay
  # without -Werror: at -O3, GCC 12 reports -Wrestrict false positives
  # inside libstdc++'s char_traits.h.
  werror=()
  if [[ ${preset} == default ]]; then
    werror=(-DESIM_WERROR=ON)
  fi
  cmake --preset "${preset}" "${werror[@]}"
  echo "=== preset: ${preset} — build ==="
  cmake --build --preset "${preset}" "${jobs}"
  for tier in "${tiers[@]}"; do
    echo "=== preset: ${preset} — test tier: ${tier} ==="
    ctest --preset "${preset}" "${jobs}" -L "${tier}"
  done
  if [[ ${preset} == default ]]; then
    # The benchmark's pre-merge check: every workload, shrunk, through
    # the benchmark's correctness gate (it builds benchmark/build).
    echo "=== benchmark — run.sh --smoke ==="
    benchmark/run.sh --smoke
  fi
  for isa in "${isas[@]}"; do
    echo "=== preset: ${preset} — ML suites, ESIM_INFERENCE_ISA=${isa} ==="
    ESIM_INFERENCE_ISA="${isa}" ctest --preset "${preset}" "${jobs}" \
      -R "${ml_suites}"
  done
done

# The six standing esim_diffcheck corpora, each closing on its corpus
# fingerprint: the all-packet fuzz sweep, the PDES scale-out sweep at the
# partition counts the scaling bench targets (graph-cut placement,
# per-pair lookahead windows, cross-partition mailboxes), hybrid engine
# equivalence, fidelity, adaptive granularity and memo. Always run this — it is the determinism
# gate, not an opt-in extra; diff its output against an older build's to
# prove a change digest-identical.
echo "=== default — esim_diffcheck corpus fingerprints ==="
scripts/fingerprints.sh build

# Quick sweep of the PDES scaling bench under ASan/UBSan: drives the
# partitioner, per-pair windows, and mailboxes at 1..8 partitions with
# real TCP traffic.
echo "=== asan-ubsan — bench_pdes_scaling smoke ==="
(cd build-asan && ESIM_BENCH_QUICK=1 ./bench/bench_pdes_scaling)

# One leaf-spine run sequentially and over four PDES partitions from one
# arrival stream (workload::start_traffic): exits 1 unless the PDES run
# launches and completes the sequential run's flows in the same number of
# events.
echo "=== asan-ubsan — pdes_leafspine ==="
(cd build-asan && ./examples/pdes_leafspine)

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
# drain-before-switch, the fluid model's pending-mutation buffering and
# its reset on every switch into the fluid tier, and the tier-trace
# digest lane must agree across engines with no lifetime/overflow bugs.
echo "=== asan-ubsan — esim_diffcheck granularity smoke ==="
(cd build-asan && ./tools/esim_diffcheck granularity --n 10 --seed 1 --partitions 2,4)

# Phase-memoization replay equivalence under the sanitizers: the delta
# recorder's observer wrapping, the LRU cache's eviction accounting, and
# the fast-forward's FES accounting advance and reserved-sequence
# injections must keep memo-on runs digest-identical to memo-off
# (DESIGN.md §13) with no lifetime bugs in the record and replay paths.
echo "=== asan-ubsan — esim_diffcheck memo smoke ==="
(cd build-asan && ./tools/esim_diffcheck memo --n 10 --seed 7 --partitions 2,4)

# The benchmark's smoke under the sanitizers: every workload, shrunk,
# through the benchmark's correctness gate, as benchmark/run.sh --smoke
# runs it — the full and hybrid Clos builds, training and the packed
# inference kernels, the adaptive tiers under two-partition PDES, and
# memo's record and fast-forward paths over 200 allreduce phases. A
# UBSan report fails the run too.
echo "=== asan-ubsan — benchmark smoke ==="
cmake -S benchmark -B build-asan/benchmark -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer"
cmake --build build-asan/benchmark "${jobs}"
workloads=(clos8_full clos8_hybrid_ml clos8_adaptive_pdes2 allreduce_memo)
for workload in "${workloads[@]}"; do
  echo "--- ${workload} ---"
  bench_out="$(mktemp -d)"
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    build-asan/benchmark/esim_benchmark run --workload "${workload}" \
    --seed 5 --trace 0 --spec BENCHMARK.json --out "${bench_out}" \
    --reps 2 --smoke
  rm -rf "${bench_out}"
done

# Granularity bench smoke: trains tiny boundary models, runs the
# all-packet reference plus fixed/adaptive tier variants and the
# quiescent corpus — the fluid backend's full lifecycle under ASan. It
# exits 1 when the pinned-Packet variant reports a shadow sample or a
# violating cluster: the observatory shadows only Ml-tier decisions.
echo "=== asan-ubsan — bench_granularity smoke ==="
(cd build-asan && ESIM_BENCH_QUICK=1 ./bench/bench_granularity)

# The model file's one caller: trains the boundary models, saves and
# reloads them (ml::save_parameters / load_parameters), exits 1 unless
# the reloaded models predict bit-identically to the trained ones, then
# runs the hybrid on them. It writes its report, trace and fidelity JSONL
# into the cwd, so it runs in a temporary directory.
echo "=== asan-ubsan — train_and_approximate ==="
example="${PWD}/build-asan/examples/train_and_approximate"
example_dir="$(mktemp -d)"
(cd "${example_dir}" && "${example}")
rm -rf "${example_dir}"

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
  'ParallelEngine|PdesBuilder|PdesNetwork|HybridPdes|TelemetryIntegration|Trace|Partitioner|Fidelity|Granularity|FluidCluster|Memo|PhaseCache|TrainFromTrace'

# The memo corpus under PDES: a live phase's injections are scheduled
# from the driving thread into partitions parked between engine windows,
# and their flows complete on partition threads.
echo "=== tsan — esim_diffcheck memo smoke ==="
(cd build-tsan && ./tools/esim_diffcheck memo --n 10 --seed 7 --partitions 2,4)

# Adaptive hybrids under PDES: each partition thread switches its own
# clusters' tiers at macro-window boundaries while cores in the other
# partition receive their deliveries through the round's mailboxes.
echo "=== tsan — esim_diffcheck granularity smoke ==="
(cd build-tsan && ./tools/esim_diffcheck granularity --n 10 --seed 1 --partitions 2,4)

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

#!/usr/bin/env bash
# Runs the six esim_diffcheck corpora and prints each one's closing line.
#
# Every closing line ends in `fingerprint=<16 hex>`, an order-sensitive
# fold of every digest the corpus logged (DESIGN.md §9). Two builds that
# print the same six lines ran every corpus digest-identically, so this is
# the check for a change that must not alter simulation behaviour: run it
# on both builds and diff the output.
#
# Each corpus's wall time goes to stderr, so stdout stays diffable. The
# PDES corpora run up to 16 partitions, more than most hosts have cores:
# the times show what oversubscription costs the engine's barrier.
#
# Exits non-zero if any corpus reports a divergence or fails to run.
#
# Usage: scripts/fingerprints.sh [build-dir]   (default: build/)
set -uo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$(cd "${1:-${root}/build}" && pwd)" || exit 2
bin="${build}/tools/esim_diffcheck"
if [[ ! -x "${bin}" ]]; then
  echo "fingerprints.sh: ${bin} not found; build the esim_diffcheck target" >&2
  exit 2
fi

corpora=(
  "fuzz --n 100 --seed 7 --partitions 1,2,4"
  "fuzz --n 15 --seed 23 --partitions 8,16"
  "hybrid --n 100 --seed 7 --partitions 2,3"
  "fidelity --n 100 --seed 7 --partitions 2,4"
  "granularity --n 100 --seed 1 --partitions 2,4"
  "memo --n 100 --seed 7 --partitions 2,4"
)

# Prints the wall seconds since $1 (an EPOCHREALTIME stamp) and label $2
# on stderr.
elapsed() {
  awk -v a="$1" -v b="${EPOCHREALTIME}" -v label="$2" \
    'BEGIN { printf "fingerprints.sh: %6.2f s  %s\n", b - a, label }' >&2
}

# A failing fuzz corpus writes its shrunk repro files into the cwd.
cd "${build}" || exit 2
status=0
all_start=${EPOCHREALTIME}
for args in "${corpora[@]}"; do
  start=${EPOCHREALTIME}
  # shellcheck disable=SC2086  # args is a word list by design
  if ! out=$("${bin}" ${args}); then
    status=1
  fi
  printf '%s: %s\n' "${args}" "$(tail -n 1 <<<"${out}")"
  elapsed "${start}" "${args}"
done
elapsed "${all_start}" "total"
exit "${status}"

#!/usr/bin/env bash
# Golden-file regression gate: the stdout of one bench run under the
# default (unperturbed) schedule must be byte-identical to a golden file.
# Any engine or protocol change that shifts the canonical event interleaving
# shows up here as a diff.
#
# Usage: scripts/check_golden.sh <build-dir> <golden-file> -- [VAR=value...] <cmd> [args...]
#
# <cmd> is a path relative to <build-dir> (e.g. bench/fig1_schedule_trace);
# leading VAR=value words set environment variables for the run only.
# Perturbation and scale variables (DCUDA_PERTURB_SEED, DCUDA_BENCH_ITERS,
# DCUDA_DPD3D_PPC) are cleared first, so the run is the canonical schedule.
#
# Regenerate a golden by running the same command with its stdout redirected
# to the golden file, only when the schedule change is intentional
# (docs/TESTING.md lists the command for every golden), e.g.
#
#   env -u DCUDA_PERTURB_SEED -u DCUDA_BENCH_ITERS -u DCUDA_DPD3D_PPC \
#     build/bench/fig1_schedule_trace --summary > tests/golden/fig1_schedule.golden
set -euo pipefail

usage() {
  echo "usage: $0 <build-dir> <golden-file> -- [VAR=value...] <cmd> [args...]" >&2
  exit 1
}

[ $# -ge 4 ] && [ "$3" = "--" ] || usage
BUILD="$1"
GOLDEN="$2"
shift 3

assignments=()
while [ $# -gt 0 ] && [[ "$1" == *=* ]]; do
  assignments+=("$1")
  shift
done
[ $# -ge 1 ] || usage
BIN="$BUILD/$1"
shift

[ -x "$BIN" ] || { echo "error: $BIN not built" >&2; exit 1; }
[ -f "$GOLDEN" ] || { echo "error: $GOLDEN missing" >&2; exit 1; }

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

env -u DCUDA_PERTURB_SEED -u DCUDA_BENCH_ITERS -u DCUDA_DPD3D_PPC \
    "${assignments[@]}" "$BIN" "$@" > "$tmp"

label="${assignments[*]:+${assignments[*]} }$(basename "$BIN") $*"
if cmp -s "$tmp" "$GOLDEN"; then
  echo "OK   $label matches $GOLDEN"
else
  echo "FAIL $label drifted from $GOLDEN" >&2
  diff "$GOLDEN" "$tmp" >&2 || true
  exit 1
fi

#!/usr/bin/env bash
# Cross-build byte-identity battery: runs the same bench commands on two
# builds (typically a parent commit and a change) and byte-compares every
# output pair. A change that claims "no simulated number moves" must pass it.
#
# The battery reuses scripts/check_determinism.sh's command lines:
#  * fig6_put_bandwidth and fig10_stencil_scaling: clean, perturbed
#    (DCUDA_PERTURB_SEED), faulty (+ DCUDA_FAULT_DROP), executor layout
#    DCUDA_SHARDS=4 DCUDA_THREADS=2, fat tree with 2 rails, and the
#    device-initiated backend;
#  * fig_dpd3d --fingerprint: clean, perturbed and --eager;
#  * cluster_traffic --transcript;
#  * fig1_schedule_trace --summary stdout and its --trace JSON, on the
#    host-loop and the device-initiated backend.
#
# Not a ctest entry: it needs two builds (docs/TESTING.md).
#
# Usage: scripts/compare_builds.sh <parent-build> <change-build>
# Env:   DCUDA_BENCH_ITERS   main-loop iterations (default 2)
#        DCUDA_PERTURB_SEED  seed for the perturbed runs (default 3735928559)
#        DCUDA_FAULT_DROP    drop rate for the faulty runs (default 0.01)
# Exits 1 naming every output pair that differs or every run that failed.
set -euo pipefail

[ $# -eq 2 ] || { echo "usage: $0 <parent-build> <change-build>" >&2; exit 2; }
BUILDS=("$1" "$2")
export DCUDA_BENCH_ITERS="${DCUDA_BENCH_ITERS:-2}"
PERTURB_SEED="${DCUDA_PERTURB_SEED:-3735928559}"
FAULT_DROP="${DCUDA_FAULT_DROP:-0.01}"
# Every case states its whole schedule; nothing leaks in from the caller.
unset DCUDA_PERTURB_SEED DCUDA_FAULT_DROP DCUDA_SHARDS DCUDA_THREADS \
      DCUDA_TOPOLOGY DCUDA_RAILS DCUDA_BACKEND

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

failures=()
cases=0

# run_case <label> [VAR=value...] -- <bench> [args...]
# An argument @TRACE@ is replaced by a per-build trace file, compared too.
run_case() {
  local label="$1" side bin out
  shift
  local vars=()
  while [ "$1" != "--" ]; do vars+=("$1"); shift; done
  shift
  bin="$1"
  shift
  cases=$((cases + 1))
  for side in 0 1; do
    out="$tmp/$label.$side"
    local exe="${BUILDS[$side]}/bench/$bin"
    [ -x "$exe" ] || { echo "error: $exe not built" >&2; exit 2; }
    if ! env "${vars[@]}" "$exe" "${@//@TRACE@/$out.trace.json}" > "$out.stdout" 2>/dev/null; then
      failures+=("$label (run failed on ${BUILDS[$side]})")
      return
    fi
  done
  local ok=1
  cmp -s "$tmp/$label.0.stdout" "$tmp/$label.1.stdout" || {
    failures+=("$label: stdout differs"); ok=0; }
  if [ -e "$tmp/$label.0.trace.json" ] || [ -e "$tmp/$label.1.trace.json" ]; then
    cmp -s "$tmp/$label.0.trace.json" "$tmp/$label.1.trace.json" || {
      failures+=("$label: trace JSON differs"); ok=0; }
  fi
  [ $ok -eq 1 ] && echo "OK   $label"
  return 0
}

for name in fig6_put_bandwidth fig10_stencil_scaling; do
  run_case "$name.clean" -- "$name"
  run_case "$name.perturbed" DCUDA_PERTURB_SEED="$PERTURB_SEED" -- "$name"
  run_case "$name.faulty" DCUDA_PERTURB_SEED="$PERTURB_SEED" \
      DCUDA_FAULT_DROP="$FAULT_DROP" -- "$name"
  run_case "$name.shards4_threads2" DCUDA_SHARDS=4 DCUDA_THREADS=2 -- "$name"
  run_case "$name.fattree_2rails" DCUDA_TOPOLOGY=fattree DCUDA_RAILS=2 -- "$name"
  run_case "$name.device_backend" DCUDA_BACKEND=device_initiated -- "$name"
done

run_case fig_dpd3d.clean -- fig_dpd3d --fingerprint
run_case fig_dpd3d.perturbed DCUDA_PERTURB_SEED="$PERTURB_SEED" -- \
    fig_dpd3d --fingerprint
run_case fig_dpd3d.eager -- fig_dpd3d --fingerprint --eager

run_case cluster_traffic.transcript -- cluster_traffic --transcript

run_case fig1.host_loop -- fig1_schedule_trace --summary --trace @TRACE@
run_case fig1.device_backend DCUDA_BACKEND=device_initiated -- \
    fig1_schedule_trace --summary --trace @TRACE@

if [ ${#failures[@]} -gt 0 ]; then
  for f in "${failures[@]}"; do echo "FAIL $f" >&2; done
  echo "${#failures[@]} mismatch(es) in $cases cases" >&2
  exit 1
fi
echo "all $cases cases byte-identical"

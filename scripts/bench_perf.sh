#!/usr/bin/env bash
# Wall-clock perf harness for the simulation engine (docs/PERF.md).
#
# Runs bench/micro_engine (engine events/sec, real time) and wall-clocks
# every fig* figure bench, then writes the combined record to a JSON file.
# Pass a previous run's JSON as BASELINE to embed it under "baseline" —
# that is how BENCH_engine.json carries before/after engine numbers.
#
# The parallel-engine lane (docs/PERF.md, "Parallel engine") runs the
# sharded micro_engine scenarios, the fig10 figure bench and the 1024-node
# weak_scaling run (the weak_scaling_1024 golden case) twice — with one
# worker thread and with DCUDA_BENCH_THREADS workers — and records the
# wall-clock ratios under "parallel". The >= 2x speedup bar applies to the
# 1024-node weak_scaling run only, and only when the machine has at least 4
# cores; on smaller hosts the record says so and the gate is skipped (a
# 1-core container cannot exhibit parallel speedup, only protocol
# overhead). The micro scenarios last a few hundredths of a second, too
# short to gate on a shared host, so their ratios are recorded ungated.
#
# The record's "host" object names the machine and build it came from:
# cores, build type, compiler and git revision.
#
# The simulated-clock acceptance bars are not here: each bench checks its
# own on its golden run (docs/PERF.md, "Simulated-clock bars").
#
# Usage: scripts/bench_perf.sh [build-dir] [out.json] [baseline.json]
#   build-dir     defaults to ./build
#   out.json      defaults to ./BENCH_engine.json
#   baseline.json optional previous record to embed for comparison
# Env:
#   DCUDA_BENCH_ITERS    fig-bench main-loop iterations (default 10)
#   DCUDA_MICRO_SCALE    micro_engine repetition multiplier (default 1)
#   DCUDA_BENCH_THREADS  parallel-lane worker count (default min(nproc, 8))
set -euo pipefail

BUILD="${1:-build}"
OUT="${2:-BENCH_engine.json}"
BASELINE="${3:-}"
export DCUDA_BENCH_ITERS="${DCUDA_BENCH_ITERS:-10}"

command -v jq > /dev/null || { echo "error: jq required" >&2; exit 1; }
[ -x "$BUILD/bench/micro_engine" ] || {
  echo "error: $BUILD/bench/micro_engine not built" >&2
  exit 1
}

echo "== micro_engine (wall clock, 1 worker thread) ==" >&2
micro_json="$(DCUDA_THREADS=1 "$BUILD/bench/micro_engine")"

fig_json="{}"
for b in "$BUILD"/bench/fig*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  name="$(basename "$b")"
  echo "== $name (iters=$DCUDA_BENCH_ITERS) ==" >&2
  t0="$(date +%s.%N)"
  "$b" > /dev/null
  t1="$(date +%s.%N)"
  sec="$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", b - a }')"
  echo "   $sec s" >&2
  fig_json="$(jq --arg n "$name" --argjson s "$sec" '. + {($n): $s}' <<< "$fig_json")"
done

# -- Parallel-engine lane (docs/PERF.md, "Parallel engine") ---------------
CORES="$(nproc 2> /dev/null || echo 1)"
PAR="${DCUDA_BENCH_THREADS:-$(( CORES < 8 ? CORES : 8 ))}"
[ "$PAR" -ge 2 ] || PAR=2
echo "== micro_engine (wall clock, $PAR worker threads; $CORES cores) ==" >&2
micro_par_json="$(DCUDA_THREADS="$PAR" "$BUILD/bench/micro_engine")"

wall() {  # wall <binary> [env...] — prints elapsed seconds
  local t0 t1
  t0="$(date +%s.%N)"
  "$@" > /dev/null
  t1="$(date +%s.%N)"
  awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", b - a }'
}
echo "== fig10_stencil_scaling wall clock, 1 vs $PAR threads ==" >&2
fig10_serial="$(wall env DCUDA_THREADS=1 "$BUILD/bench/fig10_stencil_scaling")"
fig10_par="$(wall env DCUDA_THREADS="$PAR" "$BUILD/bench/fig10_stencil_scaling")"
echo "   serial ${fig10_serial}s  parallel ${fig10_par}s" >&2
# The weak_scaling_1024 golden case: default iterations, 16/64/1024 nodes.
weak=(env -u DCUDA_BENCH_ITERS DCUDA_WEAK_NODES=1024)
echo "== weak_scaling (1024 nodes) wall clock, 1 vs $PAR threads ==" >&2
weak_serial="$(wall "${weak[@]}" DCUDA_THREADS=1 "$BUILD/bench/weak_scaling")"
weak_par="$(wall "${weak[@]}" DCUDA_THREADS="$PAR" "$BUILD/bench/weak_scaling")"
echo "   serial ${weak_serial}s  parallel ${weak_par}s" >&2

parallel_json="$(jq -n \
  --argjson threads "$PAR" \
  --argjson serial "$micro_json" --argjson par "$micro_par_json" \
  --argjson f10s "$fig10_serial" --argjson f10p "$fig10_par" \
  --argjson ws "$weak_serial" --argjson wp "$weak_par" \
  '{worker_threads: $threads,
    sharded_churn: {serial_events_per_sec: $serial.scenarios.sharded_churn.events_per_sec,
                    parallel_events_per_sec: $par.scenarios.sharded_churn.events_per_sec,
                    speedup: ($par.scenarios.sharded_churn.events_per_sec /
                              $serial.scenarios.sharded_churn.events_per_sec)},
    cross_shard: {serial_events_per_sec: $serial.scenarios.cross_shard.events_per_sec,
                  parallel_events_per_sec: $par.scenarios.cross_shard.events_per_sec,
                  speedup: ($par.scenarios.cross_shard.events_per_sec /
                            $serial.scenarios.cross_shard.events_per_sec)},
    fig10_stencil_scaling: {serial_seconds: $f10s, parallel_seconds: $f10p,
                            speedup: ($f10s / $f10p)},
    weak_scaling_1024: {serial_seconds: $ws, parallel_seconds: $wp,
                        speedup: ($ws / $wp)}}')"

if [ "$CORES" -ge 4 ]; then
  pspeed="$(jq -r '.weak_scaling_1024.speedup' <<< "$parallel_json")"
  ok="$(awk -v s="$pspeed" 'BEGIN { print (s >= 2.0) ? 1 : 0 }')"
  if [ "$ok" -ne 1 ]; then
    echo "FAIL: weak_scaling (1024 nodes) parallel speedup ${pspeed}x < 2x at $PAR threads" >&2
    exit 1
  fi
  echo "   weak_scaling parallel speedup ${pspeed}x (bar: 2x at >= 4 cores)" >&2
  parallel_json="$(jq '. + {gate: "enforced (>= 2x weak_scaling_1024)"}' <<< "$parallel_json")"
else
  echo "   $CORES core(s): 2x speedup gate skipped (needs >= 4 cores)" >&2
  parallel_json="$(jq '. + {gate: "skipped: fewer than 4 cores"}' <<< "$parallel_json")"
fi

# -- Host stamp ------------------------------------------------------------
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$BUILD/CMakeCache.txt")"
cxx="$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$BUILD/CMakeCache.txt")"
host_json="$(jq -n \
  --argjson cores "$CORES" \
  --arg build_type "${build_type:-RelWithDebInfo}" \
  --arg compiler "$("${cxx:-c++}" --version | head -n 1)" \
  --arg git_sha "$(git -C "$(dirname "$0")" describe --always --dirty --abbrev=12 \
                   2> /dev/null || echo unknown)" \
  '{cores: $cores, build_type: $build_type, compiler: $compiler,
    git_sha: $git_sha}')"

record="$(jq -n \
  --argjson iters "$DCUDA_BENCH_ITERS" \
  --argjson micro "$micro_json" \
  --argjson figs "$fig_json" \
  --argjson par "$parallel_json" \
  --argjson host "$host_json" \
  '{schema: "dcuda-bench-engine-v3", host: $host, fig_bench_iters: $iters,
    micro_engine: $micro, fig_bench_seconds: $figs, parallel: $par}')"

if [ -n "$BASELINE" ] && [ -f "$BASELINE" ]; then
  # Keep only the baseline's own wall-clock measurements (strip nested
  # baselines and the simulated-clock block of v2 records).
  record="$(jq --argjson base "$(jq 'del(.baseline, .speedup, .weak_scaling)' "$BASELINE")" \
    '. + {baseline: $base}' <<< "$record")"
  record="$(jq '. + {speedup: {events_per_sec:
    (.micro_engine.events_per_sec / .baseline.micro_engine.events_per_sec)}}' \
    <<< "$record")"
fi

printf '%s\n' "$record" > "$OUT"
echo "wrote $OUT" >&2

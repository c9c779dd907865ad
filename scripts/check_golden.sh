#!/usr/bin/env bash
# Golden-case gate: runs one case of tests/golden/cases.txt and byte-compares
# its stdout against tests/golden/<name>.golden, twice — once as written
# (the serial executor) and once under DCUDA_SHARDS=4 DCUDA_THREADS=2. One
# golden thus pins replay stability, executor invariance and identity with
# the build that wrote it (docs/TESTING.md, "Golden cases").
#
# Usage: scripts/check_golden.sh <build-dir> <case-name>
#
# A case line is `<name> [VAR=value...] <bench> [args...]`; <bench> is a
# binary under <build-dir>/bench. Every DCUDA_* variable of the caller is
# unset before the case's own are applied. An argument @TRACE@ becomes a
# temporary file (for --trace) whose sha256 is appended to the output.
#
# A missing golden is written from the run as written, and the gate fails
# so the new file gets reviewed: delete a golden and rerun to regenerate it.
set -euo pipefail

[ $# -eq 2 ] || { echo "usage: $0 <build-dir> <case-name>" >&2; exit 2; }
BUILD="$1"
NAME="$2"
GOLDEN_DIR="$(cd "$(dirname "$0")/../tests/golden" && pwd)"
GOLDEN="$GOLDEN_DIR/$NAME.golden"

line="$(awk -v n="$NAME" '$1 == n { print; exit }' "$GOLDEN_DIR/cases.txt")"
[ -n "$line" ] || { echo "error: no case '$NAME' in $GOLDEN_DIR/cases.txt" >&2; exit 2; }
read -r -a words <<< "$line"
vars=()
i=1
while [[ "${words[$i]}" == *=* ]]; do vars+=("${words[$i]}"); i=$((i + 1)); done
BIN="$BUILD/bench/${words[$i]}"
args=("${words[@]:$((i + 1))}")
[ -x "$BIN" ] || { echo "error: $BIN not built" >&2; exit 2; }

for v in $(compgen -e); do
  if [[ "$v" == DCUDA_* ]]; then unset "$v"; fi
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

run() {  # run <out> [VAR=value...]: one run of the case, stdout to <out>
  local out="$1"
  shift
  rm -f "$tmp/trace.json"
  env "$@" "${vars[@]}" "$BIN" "${args[@]//@TRACE@/$tmp/trace.json}" > "$out" || return
  if [ -e "$tmp/trace.json" ]; then
    echo "trace sha256 $(sha256sum < "$tmp/trace.json" | cut -d' ' -f1)" >> "$out"
  fi
}

if [ ! -f "$GOLDEN" ]; then
  run "$tmp/new"
  mv "$tmp/new" "$GOLDEN"
  echo "NEW  $NAME: wrote $GOLDEN; review it and rerun" >&2
  exit 1
fi

status=0
for layout in "" "DCUDA_SHARDS=4 DCUDA_THREADS=2"; do
  label="$NAME${layout:+ under $layout}"
  # shellcheck disable=SC2086  # $layout is a list of assignments
  if ! run "$tmp/out" $layout; then
    echo "FAIL $label: the bench exited with an error" >&2
    status=1
  elif cmp -s "$tmp/out" "$GOLDEN"; then
    echo "OK   $label"
  else
    echo "FAIL $label drifted from $GOLDEN" >&2
    diff "$GOLDEN" "$tmp/out" >&2 || true
    status=1
  fi
done
exit $status

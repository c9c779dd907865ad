#!/usr/bin/env bash
# Docs consistency checks (tier-1, see tests/CMakeLists.txt):
#  1. every benchmark in bench/ has a "bench/<name>" entry in
#     docs/FIGURES.md, and every one but the wall-clock micro_engine has
#     at least one case in tests/golden/cases.txt;
#  2. every sim::MachineConfig field (src/sim/config.h) is documented in
#     docs/API.md;
#  3. every DCUDA_* environment variable referenced by sources or scripts
#     is documented somewhere under docs/ (or README/EXPERIMENTS/ROADMAP);
#  4. every BENCH_*.json record those docs name is committed at the repo
#     root;
#  5. no file under src/ reads the environment (getenv) or exits the
#     process (exit( / std::exit( ): library code reports bad input with
#     errors a caller can catch, and the DCUDA_* dials are parsed in
#     bench/env.h;
#  6. every field of a `struct *Config` in src/sim/config.h is named by
#     some file under src/ besides config.h: a knob nothing reads is dead.
# Run manually from the repo root: scripts/check_docs.sh [repo-root]
set -euo pipefail

ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
FIGURES="$ROOT/docs/FIGURES.md"
API="$ROOT/docs/API.md"
CONFIG="$ROOT/src/sim/config.h"
CASES="$ROOT/tests/golden/cases.txt"

if [ ! -f "$FIGURES" ]; then
  echo "FAIL: $FIGURES does not exist" >&2
  exit 1
fi

missing=0
for src in "$ROOT"/bench/*.cpp; do
  name="$(basename "$src" .cpp)"
  if ! grep -q "bench/$name" "$FIGURES"; then
    echo "FAIL: bench/$name has no entry in docs/FIGURES.md" >&2
    missing=$((missing + 1))
  fi
  [ "$name" = micro_engine ] && continue
  if ! awk -v b="$name" '/^[a-z]/ { for (i = 2; i <= NF; i++) if ($i == b) f = 1 }
                         END { exit !f }' "$CASES"; then
    echo "FAIL: bench/$name has no case in tests/golden/cases.txt" >&2
    missing=$((missing + 1))
  fi
done

# -- MachineConfig field coverage (config/docs drift) ----------------------
# Field names are the identifiers of member declarations inside the
# `struct <name> { ... };` blocks whose name matches the awk regex $1
# (comments and member functions excluded).
if [ ! -f "$API" ] || [ ! -f "$CONFIG" ]; then
  echo "FAIL: docs/API.md or src/sim/config.h missing" >&2
  exit 1
fi
config_fields() {
  awk "/^struct $1 \\{/,/^\\};/" "$CONFIG" \
    | sed 's://.*::' \
    | grep -E '^[[:space:]]+[A-Za-z_][A-Za-z0-9_:<>]*[[:space:]]+[a-z_][a-z0-9_]*([[:space:]]*=.*)?;' \
    | sed -E 's/.*[[:space:]]([a-z_][a-z0-9_]*)([[:space:]]*=.*)?;.*/\1/' \
    | grep -vE '^return$' | sort -u
}
fields="$(config_fields MachineConfig)"
if [ -z "$fields" ]; then
  echo "FAIL: could not parse MachineConfig fields from $CONFIG" >&2
  exit 1
fi
for f in $fields; do
  if ! grep -qw "$f" "$API"; then
    echo "FAIL: MachineConfig field '$f' is not documented in docs/API.md" >&2
    missing=$((missing + 1))
  fi
done

# -- DCUDA_* environment variable coverage ---------------------------------
# Sources reference env vars as string literals ("DCUDA_FAULT_DROP"),
# scripts by name; each must be documented in the markdown set below.
env_vars="$( (grep -rhoE '"DCUDA_[A-Z0-9_]+"' \
                "$ROOT/src" "$ROOT/tests" "$ROOT/bench" 2>/dev/null \
                | tr -d '"';
              grep -rhoE 'DCUDA_[A-Z0-9_]+' "$ROOT/scripts" 2>/dev/null) \
             | sort -u)"
doc_files=("$ROOT"/docs/*.md "$ROOT/README.md" "$ROOT/EXPERIMENTS.md" \
           "$ROOT/ROADMAP.md")
for v in $env_vars; do
  if ! grep -qw "$v" "${doc_files[@]}" 2>/dev/null; then
    echo "FAIL: env var '$v' is not documented (docs/, README, EXPERIMENTS)" >&2
    missing=$((missing + 1))
  fi
done

# -- BENCH_*.json records named by the docs --------------------------------
for f in $(grep -ohE 'BENCH_[A-Za-z0-9_]+\.json' "${doc_files[@]}" 2> /dev/null \
           | sort -u); do
  if [ ! -f "$ROOT/$f" ]; then
    echo "FAIL: $f is named in the docs but not committed at the repo root" >&2
    missing=$((missing + 1))
  fi
done

# -- Library code neither reads the environment nor exits -----------------
for f in $(grep -rlE 'getenv|(^|[^[:alnum:]_])(std::)?exit[[:space:]]*\(' \
             "$ROOT/src" | sort); do
  echo "FAIL: ${f#"$ROOT"/} calls getenv or exit (library code must not)" >&2
  missing=$((missing + 1))
done

# -- Every config field is read somewhere ---------------------------------
config_all="$(config_fields '[A-Za-z]*Config')"
if [ -z "$config_all" ]; then
  echo "FAIL: could not parse the *Config fields from $CONFIG" >&2
  exit 1
fi
for f in $config_all; do
  if ! grep -rlw "$f" "$ROOT/src" | grep -qvxF "$CONFIG"; then
    echo "FAIL: config field '$f' (src/sim/config.h) is named by no other file under src/" >&2
    missing=$((missing + 1))
  fi
done

if [ "$missing" -ne 0 ]; then
  echo "docs check failed: $missing item(s)" >&2
  echo "update docs/FIGURES.md, docs/API.md, tests/golden/cases.txt, the env-var docs or the BENCH_*.json references, move getenv/exit out of src/, or delete the unread config fields" >&2
  exit 1
fi

echo "docs check passed: benchmarks are documented and pinned, MachineConfig fields and DCUDA_* env vars are documented, cited BENCH_*.json records exist, src/ has no getenv or exit, every config field is read"

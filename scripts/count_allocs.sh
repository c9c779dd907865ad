#!/usr/bin/env bash
# Heap-allocation counter: builds a small LD_PRELOAD malloc interposer into
# the build directory, runs a command under it, and prints to stderr, for
# every process the command starts, its malloc calls (malloc, calloc,
# realloc, aligned_alloc, posix_memalign, memalign — C++ operator new lands
# in malloc), the bytes requested and a power-of-two histogram of request
# sizes.
#
# Usage: scripts/count_allocs.sh <cmd...>
# Env:   COUNT_ALLOCS_BUILD   directory for the interposer (default: build)
#
# Example (one perfbench phase, no Python in the count):
#   scripts/count_allocs.sh .bench_build/perfbench --workload rma_pingpong \
#       --phase dcuda
set -euo pipefail

[ $# -ge 1 ] || { echo "usage: $0 <cmd...>" >&2; exit 2; }
build="${COUNT_ALLOCS_BUILD:-build}"
mkdir -p "$build"
lib="$(cd "$build" && pwd)/count_allocs.so"
src="$(dirname "$lib")/count_allocs.c"

cat > "$src.tmp" <<'EOF'
#include <stdatomic.h>
#include <stdio.h>
#include <stdlib.h>
#include <unistd.h>

extern void* __libc_malloc(size_t);
extern void* __libc_calloc(size_t, size_t);
extern void* __libc_realloc(void*, size_t);
extern void* __libc_memalign(size_t, size_t);

static atomic_ulong calls, bytes, hist[64];

static void count(size_t n) {
  atomic_fetch_add_explicit(&calls, 1, memory_order_relaxed);
  atomic_fetch_add_explicit(&bytes, n, memory_order_relaxed);
  const int b = n <= 1 ? 0 : 64 - __builtin_clzl(n - 1);
  atomic_fetch_add_explicit(&hist[b], 1, memory_order_relaxed);
}

void* malloc(size_t n) { count(n); return __libc_malloc(n); }
void* calloc(size_t m, size_t n) { count(m * n); return __libc_calloc(m, n); }
void* realloc(void* p, size_t n) { count(n); return __libc_realloc(p, n); }
void* memalign(size_t a, size_t n) { count(n); return __libc_memalign(a, n); }
void* aligned_alloc(size_t a, size_t n) { count(n); return __libc_memalign(a, n); }
int posix_memalign(void** out, size_t a, size_t n) {
  count(n);
  *out = __libc_memalign(a, n);
  return *out ? 0 : 12;
}

__attribute__((destructor)) static void report(void) {
  fprintf(stderr, "count_allocs: pid %d: mallocs %lu  bytes %lu\n",
          (int)getpid(), (unsigned long)calls, (unsigned long)bytes);
  for (int b = 0; b < 64; ++b) {
    if (hist[b] == 0) continue;
    fprintf(stderr, "count_allocs:   <= %-12lu %lu\n", 1ul << b,
            (unsigned long)hist[b]);
  }
}
EOF
if ! cmp -s "$src.tmp" "$src" || [ ! -f "$lib" ]; then
  mv "$src.tmp" "$src"
  cc -O2 -shared -fPIC -o "$lib" "$src"
else
  rm -f "$src.tmp"
fi

LD_PRELOAD="$lib" exec "$@"

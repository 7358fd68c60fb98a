#!/usr/bin/env bash
# Builds the harness from source inside the checkout and runs it with the
# given arguments. Everything the build writes (Go build cache, binary)
# stays under .bench_build/ at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
bin="$build/l25gc-benchmark"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
# A crash in the core should say what every goroutine was doing.
export GOTRACEBACK=all
(cd "$here" && go build -o "$bin" .)
cd "$root"

# The packet pool's free ring (internal/pktbuf over ring.MPMC) is exactly
# as large as the pool, so a Release can find the slot of a Get that was
# descheduled half-way and panic with a false "free ring overflow". It
# takes a thread losing its CPU inside a window of a few instructions, and
# was seen about once in a hundred runs at this commit. The fix belongs to
# the pool, not to the benchmark, so this one panic, and no other failure,
# is retried once.
err="$build/stderr.$$"
trap 'rm -f "$err"' EXIT
code=0
"$bin" "$@" 2>"$err" || code=$?
cat "$err" >&2
if [ "$code" -ne 0 ] && grep -q 'pktbuf: free ring overflow' "$err"; then
  echo "run.sh: the core hit the known pktbuf free-ring race (benchmark/README.md, Findings); running once more" >&2
  code=0
  "$bin" "$@" || code=$?
fi
exit "$code"

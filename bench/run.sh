#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash bench/run.sh --workload oltp_mem --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it writes — the Go build
# cache, the binary, the trace of a --trace 1 run — goes under .bench_build/
# in that checkout; nothing outside the checkout is read or written.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/core ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the root of a checkout of the repository (go.mod, internal/, bench/)" >&2
	exit 2
fi

out="$PWD/.bench_build"
bin="$out/minuet-bench"
mkdir -p "$out/tmp"

# A self-contained toolchain environment: no network, no user-level caches.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

# Rebuild only when a source file is newer than the binary.
if [ ! -x "$bin" ] || [ -n "$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	(cd bench && go build -buildvcs=false -o "$bin" .)
fi

BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
exec "$bin" "$@"

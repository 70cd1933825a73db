#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the checkout's root:
#
#   bash _perfbench/run.sh --workload study --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the checkout; the first run compiles the standard
# library into that cache.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go -C _perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"

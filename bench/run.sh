#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload trace-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, Go's own config and
# telemetry) stays under .bench_build in the current directory, and nothing
# is fetched: the benchmark module needs only the repository and the
# standard library.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod \
	CGO_ENABLED=0
(cd "$root/bench" && go build -o "$out/aisched-bench" .)
exec "$out/aisched-bench" "$@"

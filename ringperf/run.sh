#!/usr/bin/env bash
# Builds the ringperf benchmark from the repository checkout it is run
# in, then runs it with the given arguments. Run from the checkout root:
#
#   bash ringperf/run.sh --workload lease-churn --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, the Go tool's own state and the
# benchmark's results and spans all stay under .bench_build/ in the
# checkout.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -C ringperf -buildvcs=false -o "$out/bin/ringperf" .
RINGPERF_COMMIT=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	RINGPERF_COMMIT=$(git -C "$root" rev-parse HEAD)
fi
export RINGPERF_COMMIT
exec "$out/bin/ringperf" "$@"

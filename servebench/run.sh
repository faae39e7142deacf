#!/usr/bin/env bash
# Builds the nsserve daemon and the serving benchmark from this checkout
# and runs the benchmark. Run it from the repository root:
#
#   bash servebench/run.sh --workload engine-reads --seed 1 --seconds 15 --trace 0
#   bash servebench/run.sh --workload durable-swaps --seed 1 --seconds 15 --steady 10
#
# Build outputs, the Go build cache and every file the benchmark writes
# stay under .bench_build in the repository root.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/nsserve" ] || [ ! -f "$root/servebench/go.mod" ]; then
	echo "servebench: run from the repository root (need go.mod, cmd/nsserve and servebench/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The go command also writes under GOPATH and the user config directory
# (telemetry counters); point both into the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/nsserve" ./cmd/nsserve
(cd servebench && go build -o "$out/servebench" .)
exec "$out/servebench" -daemon "$out/nsserve" -work "$out/work" "$@"

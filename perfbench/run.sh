#!/usr/bin/env bash
# Builds the benchmark driver from the sources of the checkout it sits in
# and runs one measurement. From the repository root:
#
#   bash perfbench/run.sh --workload platform --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache and the binary. HOME and XDG_CONFIG_HOME are blanked for the go command so
# it keeps no user configuration and starts no telemetry process.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"
env HOME= XDG_CONFIG_HOME= GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	go -C "$here" build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"

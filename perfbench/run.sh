#!/usr/bin/env bash
# Builds the benchmark and the serve daemon from the sources of the checkout
# it is run from, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload serve_bursty --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache, the Go toolchain's own files and span
# files go to .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/serve" reqsched/cmd/serve)
exec "$out/perfbench" -serve-bin "$out/serve" -out "$out" -spec "$root/BENCHMARK.json" "$@"

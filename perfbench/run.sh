#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload paper-figures --seed 0 --seconds 25 --trace 0
#
# Every build input and output stays inside the checkout: the Go build and
# module caches, GOPATH and the Go config directory (telemetry counters)
# live under .bench_build/, and no toolchain is downloaded.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" --root "$root" "$@"

#!/usr/bin/env bash
# Builds the benchmark program from this checkout and runs it. Run from the
# repository root:
#
#   bash geobench/run.sh --workload browse-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$GOTMPDIR"
go -C "$root/geobench" build -o "$out/bin/geobench" .
exec "$out/bin/geobench" --root "$root" "$@"

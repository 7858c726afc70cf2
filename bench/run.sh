#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload dc-online --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# compiler's scratch files all stay in .bench_build/ ($CARGO_TARGET_DIR
# when set) under that root.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"

#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload restaurant-reject --seed 1 --seconds 30 --trace 0
#
# Build products, the Go build cache and run scratch files stay under
# $CARGO_TARGET_DIR (default .bench_build) in the working directory.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/go-cache" "$out/go-tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"

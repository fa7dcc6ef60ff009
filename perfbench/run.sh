#!/usr/bin/env bash
# Builds the perfbench harness from source and runs one measurement.
# Run from the repository root:
#   bash perfbench/run.sh --workload db-ycsb-a-sb --seed 1 --seconds 10 --trace 0
# Build outputs, the Go build cache and traces go under $CARGO_TARGET_DIR
# (default .bench_build), so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config GOTMPDIR=$out/tmp TMPDIR=$out/tmp

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"

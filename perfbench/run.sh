#!/usr/bin/env bash
# Builds the benchmark and beaconserved from this checkout's sources,
# then runs the benchmark with the given arguments. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 30 --trace 0
#
# Everything is built under .bench_build (or $CARGO_TARGET_DIR), with
# the Go build cache there too, so nothing is written outside the
# checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$GOTMPDIR"
(
	cd "$root/perfbench"
	go build -o "$out/perfbench" .
	go build -o "$out/beaconserved" beacongnn/cmd/beaconserved
) >&2
exec "$out/perfbench" --daemon "$out/beaconserved" --out "$out" "$@"

#!/usr/bin/env bash
# Builds esbench from source into .bench_build/ (build cache included, so
# nothing is written outside the checkout) and runs it with the given
# arguments. Run from the root of a checkout:
#   bash cmd/esbench/run.sh --workload es-pa --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$PWD
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOWORK=off
mkdir -p "$root/.bench_build"
go build -C cmd/esbench -o "$root/.bench_build/esbench" .
exec "$root/.bench_build/esbench" "$@"

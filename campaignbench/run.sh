#!/usr/bin/env bash
# Builds the campaign benchmark from this checkout's source and runs it.
# Run from the repository root:
#
#   bash campaignbench/run.sh --workload mutate-gt --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binary, state
# directories, span files) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build/campaignbench"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/campaignbench" build -o "$build/campaignbench" .
exec "$build/campaignbench" --out "$build" "$@"

#!/usr/bin/env bash
# Builds uniqbench from this checkout and runs it. Run from the repository
# root, for example:
#
#   bash bench/run.sh --workload scene --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh compare -base '.bench_build/base-*.json' -head '.bench_build/head-*.json'
#
# Every build artifact, temporary file and Go setting stays under
# .bench_build in the checkout, and nothing is downloaded.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go -C bench build -o "$build/bin/uniqbench" ./uniqbench
exec "$build/bin/uniqbench" "$@"

#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# flags. Run it from the repository root:
#
#   bash bench/run.sh --workload solve-n8-attack --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under the build directory
# (CARGO_TARGET_DIR if set, else .bench_build) in the current directory: the
# Go build cache, its temporary files and the binary. No module is
# downloaded; the benchmark's only dependency is the repository itself.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath \
	XDG_CONFIG_HOME=$build/config GOENV=off GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=-mod=readonly
go -C bench build -o "$build/modcon-e2e" .
exec "$build/modcon-e2e" "$@"

#!/usr/bin/env bash
# Builds the DIPE benchmark from this checkout's source and runs it.
# Run it from the repository root:
#
#   bash bench/run.sh --workload <name>|all [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
#   bash bench/run.sh --calibrate          # regenerate bench/reference.json
#   bash bench/run.sh compare BASE.jsonl HEAD.jsonl
#
# The Go build cache, the go command's configuration and telemetry
# directory, and the binaries stay under .bench_build in the repository
# root, so a run writes nothing outside the checkout and reads nothing
# outside it but the Go toolchain. The benchmark is its own module
# (bench/go.mod) that replaces repro with the parent directory, so the
# build fails, and nothing runs, when the repository's source is absent.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

bin=dipebench
pkg=.
if [ "${1:-}" = compare ]; then
	bin=dipebench-compare
	pkg=./compare
	shift
fi
(cd bench && go build -o "$build/$bin" "$pkg")
exec "$build/$bin" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything it writes stays under benchmark/out/ (ignored
# by git): the Go build cache, module path and config directory and the
# binary in build/, traces and scratch WAL directories beside them.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/benchmark" ]; then
	echo "benchmark/run.sh: run from the root of a checkout of the repository" >&2
	exit 2
fi
build="$root/benchmark/out/build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"

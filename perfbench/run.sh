#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it from the checkout's root with the given arguments, for example
#
#   bash perfbench/run.sh --workload search-uniform --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes stays under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"

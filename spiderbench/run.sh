#!/usr/bin/env bash
# Builds and runs the Spider benchmark from the root of a checkout:
#
#   bash spiderbench/run.sh --workload geo-mix --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout: the Go build cache, the binary and the span logs.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal ]]; then
	echo "spiderbench: run from the root of a Spider checkout (go.mod and internal/ not found)" >&2
	exit 2
fi
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/spiderbench"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off GOFLAGS= CGO_ENABLED=0

(cd spiderbench && go build -o "$build/spiderbench/spiderbench" .)
exec "$build/spiderbench/spiderbench" "$@"

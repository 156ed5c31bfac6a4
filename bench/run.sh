#!/usr/bin/env bash
# Builds the benchmark from source and runs it; the arguments go to the
# benchmark (see bench/README.md). Everything the build writes — the binary
# and Go's build cache — stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/bcpqp-bench" ./bench
exec "$out/bcpqp-bench" "$@"

#!/usr/bin/env bash
# Builds the payment benchmark from source and runs it. Run it from the
# repository root; its arguments go to the benchmark:
#
#   bash paybench/run.sh --workload transfer --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and everything a run writes stay under
# .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C paybench build -o "$out/paybench" .
exec "$out/paybench" "$@"

#!/usr/bin/env bash
# Builds tpcc-bench from source and runs it with the given arguments. Run it
# from the root of a checkout: `bash internal/bench/run.sh --workload
# cpu-resident --seed 1 --seconds 10 --trace 0`. Everything the build writes
# (binary, Go build cache) stays under .bench_build in the checkout, and the
# build needs no network: the engine has no dependencies outside the
# standard library.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/tpcc-bench" ./cmd/tpcc-bench)
exec "$out/tpcc-bench" "$@"

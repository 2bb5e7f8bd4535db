#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload broadcast --seed 1 --seconds 10 --trace 0
#
# Every file the Go toolchain and the benchmark write stays under
# .bench_build/ in the checkout (build cache, binary, run scratch, span
# files). Without the repository sources next to perfbench/ the build
# fails and the script exits nonzero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
(cd "$root/perfbench" && HOME="$out/home" XDG_CONFIG_HOME="$out/home" go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" "$@"

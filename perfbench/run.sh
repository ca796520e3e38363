#!/usr/bin/env bash
# Builds perfbench from the source tree it sits in and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, binary, span
# files) stays under .bench_build in the working directory; nothing is fetched
# from the network.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

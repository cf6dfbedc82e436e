#!/usr/bin/env bash
# Builds tpusim's end-to-end benchmark from the sources in the current
# directory (the repository root) and runs one workload:
#
#	bash perfbench/run.sh --workload paper|pod|rollout|serve --seed N --seconds S --trace 0|1
#
# Every build product, cache and profile stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"

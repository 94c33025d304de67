#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-sparse --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in
# the current directory (Go build cache included), and the Go toolchain
# is kept offline and local.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

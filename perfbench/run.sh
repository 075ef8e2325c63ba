#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is
# run from, then runs it with the given arguments. Run it from the root
# of the checkout:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -buildvcs=false -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"

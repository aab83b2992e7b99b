#!/usr/bin/env bash
# Builds the load generator from this checkout and runs it once:
#
#   bash bench/run.sh --workload search_1shard --seed 1 --seconds 30 --trace 0
#
# Everything it writes stays inside the checkout: the Go build cache, the
# binaries and the servers' data directories under .bench_build/, the full
# report and the trace under bench/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin"

export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

(cd "$root/bench" && go build -o "$build/bin/loadgen" ./loadgen) >&2
exec "$build/bin/loadgen" -root "$root" "$@"

#!/usr/bin/env bash
# Builds and runs the Borges benchmark from a checkout of the repository:
#
#   bash bench/run.sh --workload pipeline-paper --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -seed 1                 # all four workloads
#   bash bench/run.sh compare runsA/ runsB/   # repeatability / regression verdicts
#
# The benchmark is its own Go module (bench/go.mod) that imports the
# repository's packages through a replace directive, so it only builds
# inside a full checkout. The Go build cache, the compiled benchmark,
# the borgesd binary it drives and every scratch file stay under
# .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
mkdir -p "$GOTMPDIR"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$build/borges-bench" .) >&2
exec "$build/borges-bench" -root "$root" "$@"

#!/usr/bin/env bash
# Builds the s2rdf CLI and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload lookup --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare --runs 10 --workloads lookup,analytic,hot-cache
#
# Everything it builds or writes stays inside the checkout: binaries and the
# Go build cache under .bench_build/perfbench, span dumps and comparison
# results under .perfbench.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/s2rdf" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/s2rdf and perfbench/)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off
go build -o "$out/s2rdf" ./cmd/s2rdf >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@" -root "$root"

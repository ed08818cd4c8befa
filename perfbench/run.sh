#!/usr/bin/env bash
# Builds cgsweep, cgserve and the benchmark from this checkout's sources,
# then runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload grid --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/cgsweep || ! -d cmd/cgserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root; the program's sources are missing here" >&2
	exit 2
fi
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp" "$build/home"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp \
	HOME=$build/home XDG_CONFIG_HOME=$build/home XDG_CACHE_HOME=$build/home \
	GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off
go build -o "$build/bin/" ./cmd/cgsweep ./cmd/cgserve
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" -bin "$build/bin" "$@"

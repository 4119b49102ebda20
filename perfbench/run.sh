#!/usr/bin/env bash
# Builds dpcubed and the benchmark from this checkout's sources, then runs
# the benchmark with the given arguments. Run from the root of the
# checkout:
#
#   bash perfbench/run.sh --workload dashboard-hot --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh steady --workload release-cold --runs 10
#
# Everything it builds or writes stays under .bench_build in the checkout,
# including the Go build cache.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/dpcubed || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a dpcubed checkout (needs go.mod, cmd/dpcubed and perfbench/)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOSUMDB=off

go build -o "$build/dpcubed" ./cmd/dpcubed
(cd perfbench && go build -o "$build/perfbench" .)
# The in-process probe imports internal packages; if an internal API change
# breaks it, only traced runs (which need it) fail.
rm -f "$build/inproc"
(cd perfbench && go build -o "$build/inproc" ./inproc) ||
	echo "perfbench: the in-process probe did not build; traced runs will fail" >&2

exec "$build/perfbench" "$@"

#!/usr/bin/env bash
# Builds the repository benchmark from the sources in the current
# directory (the repository root) and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload serve-drift --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
if [ -d .git ] && commit=$(git rev-parse HEAD 2>/dev/null); then
	export PERFBENCH_COMMIT="$commit"
fi
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

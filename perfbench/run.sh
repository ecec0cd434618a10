#!/usr/bin/env bash
# Builds the perfbench benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#	bash perfbench/run.sh --workload lbchat-lossy --seed 7 --seconds 15 --trace 0
#
# Every build product (compiler cache, temporary files, the binary) goes
# under .bench_build in the current directory, so nothing is written
# outside the checkout. The module path check makes the script fail fast,
# before building, in a directory that holds the benchmark but not the
# program it measures.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of an lbchat checkout" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod \
	GOWORK=off GOPROXY=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"

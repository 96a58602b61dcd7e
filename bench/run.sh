#!/usr/bin/env bash
# Builds the end-to-end benchmark (bench/e2e) from source and runs it,
# passing every argument through, e.g.
#
#   bash bench/run.sh --workload bisect-ibm --seed 1 --seconds 25 --trace 0
#
# Go's build cache, temporary files and the built binaries stay under
# .bench_build/ in the repository root, so a run writes nothing elsewhere.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	GOFLAGS=-mod=readonly CGO_ENABLED=0
mkdir -p "$GOTMPDIR" "$build/bin"
go -C bench build -o "$build/bin/e2e" ./e2e
exec "$build/bin/e2e" "$@"

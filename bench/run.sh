#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root, passing every
# argument through:
#
#   bash bench/run.sh --workload wide-3k --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files and binaries go to .bench_build/ in
# the working directory, so a run writes nothing outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
go build -C bench -o "$out/bin/bench" .
exec "$out/bin/bench" "$@"

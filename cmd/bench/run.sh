#!/usr/bin/env bash
# Builds cmd/bench from source and runs it. Run from the repository root;
# every flag is passed through to the benchmark:
#
#	bash cmd/bench/run.sh -workload sweep-8x8 -seed 1 -seconds 12 -trace 0
#
# The build cache, temporary files and the binary stay under .bench_build
# in the current directory, so nothing is written outside the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd cmd/bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"

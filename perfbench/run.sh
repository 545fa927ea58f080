#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload fleet|service|paper --seed N --seconds S --trace 0|1
#
# Run from the repository root. Every build output, cache and scratch
# file stays under .bench_build/ in that root.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
# Keep the Go build cache, its temporary files and the toolchain's own
# bookkeeping inside the checkout, and never reach for a network
# toolchain or module proxy.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

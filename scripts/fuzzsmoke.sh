#!/bin/sh
# fuzzsmoke.sh runs every fuzz target in the module for a short,
# bounded time each. Plain `go test` only replays the seed corpora;
# this mutates past them. Targets are discovered from the source
# (every `func Fuzz*` in a _test.go file outside perfbench/, which is
# its own module), so the list cannot go stale as targets are added.
#
# Usage:
#
#	./scripts/fuzzsmoke.sh                  # 10s per target
#
# A failing input is written under the package's testdata/fuzz/ by
# `go test`; commit it so the seed corpus replays the regression.
#
# -fuzzminimizetime is capped at 100 runs: by default the engine spends
# up to a minute shrinking every new interesting input, and on
# FuzzReadTrace's multi-kilobyte trace images that alone ate the whole
# 10s budget (about 3 execs/s instead of about 30k).
set -eu

cd "$(dirname "$0")/.."

targets="$(grep -rl --include='*_test.go' '^func Fuzz' . | grep -v '^\./perfbench/' | sort)"
if [ -z "$targets" ]; then
	echo "fuzzsmoke.sh: no fuzz targets found" >&2
	exit 1
fi

n=0
for file in $targets; do
	dir="$(dirname "$file")"
	for name in $(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$file"); do
		echo "==> $dir $name"
		go test -run '^$' -fuzz "^${name}\$" -fuzztime 10s \
			-fuzzminimizetime 100x -parallel 2 "$dir"
		n=$((n + 1))
	done
done
echo "fuzzsmoke.sh: $n targets OK"

# Verification targets mirror .github/workflows/ci.yml.

.PHONY: all build test race lint check fuzz bench coverage report

all: check

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# lint runs the static gates only (no tests): vet, gofmt, thermlint
# (with inline GitHub annotations when run under Actions).
lint:
	go vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	./scripts/lintannotate.sh ./...

# check is the full CI gate.
check:
	./scripts/check.sh

# fuzz runs every fuzz target in the module for 10s each, past the
# seed corpora plain `go test` replays. Kept out of check so the local
# gate stays fast; CI runs it as its own step.
fuzz:
	./scripts/fuzzsmoke.sh

# bench refreshes BENCH_cluster.json from the cluster scale benchmark
# suite (BENCHTIME=1x for a smoke run). FLEET=1 extends ClusterStep to
# the 1k/10k/100k-node fleet matrix recorded in the committed
# trajectory.
bench:
	FLEET=1 ./scripts/bench.sh

# coverage measures total statement coverage and enforces the floor
# (FLOOR=0 to measure only). Leaves coverage.out for `go tool cover`.
coverage:
	./scripts/coverage.sh

# report rewrites docs/report.md from a live serial run of the harness;
# internal/report's TestReportMatchesCommitted fails until it is rerun
# after any change that moves a reported number.
report:
	go run ./cmd/experiments -markdown -workers 1 > docs/report.md.tmp
	mv docs/report.md.tmp docs/report.md

# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# steps; `make ci` reproduces them locally.

GO ?= go

.PHONY: all build test perfbench-test race cover fuzz bench serve-smoke worker-smoke load-smoke trace-smoke probe-smoke ci fmt vet lint

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The benchmark (perfbench/) is its own module, so `go test ./...` at the
# root does not reach its percentile and self-time tests.
perfbench-test:
	cd perfbench && $(GO) test ./...

# Coverage gate: the hot-loop packages must keep internal/core at or above
# its recorded line coverage (see ci.yml for the canonical threshold).
# Runs without -race (coverage under the race detector is ~10x slower);
# `make race` provides the race pass.
cover:
	$(GO) test -count=1 -coverprofile=cover.out -coverpkg=./internal/core ./internal/core ./internal/experiments
	@pct=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/core line coverage: $$pct%"; \
	awk -v p="$$pct" 'BEGIN { if (p + 0 < 92.0) { print "coverage gate: " p "% < 92.0%"; exit 1 } }'

# Fixed-budget coverage-guided smoke of the co-simulation property, of
# the fast-forward differential (a skipping machine locked against a
# tick-every-cycle one), and of the trace record/replay bit-identity
# property. One invocation per target: go test accepts one -fuzz each.
fuzz:
	$(GO) test ./internal/core -run xxx -fuzz FuzzCoSimulate -fuzztime 20s
	$(GO) test ./internal/core -run xxx -fuzz FuzzFastForward -fuzztime 10s
	$(GO) test ./internal/trace -run xxx -fuzz FuzzTraceReplay -fuzztime 10s

# End-to-end smoke of the simulation service: build cmd/dcaserve, start
# it, POST a tiny job, assert a 200 with a well-formed content-addressed
# result (the same check CI runs).
serve-smoke:
	./ci/serve_smoke.sh

# End-to-end smoke of the distributed layer: one dcaserve, two dcaworkers,
# a small enqueued grid — every result must land with a verifying digest,
# duplicates must dedup, and SIGTERM must drain the workers.
worker-smoke:
	./ci/worker_smoke.sh

# End-to-end smoke of the hardening layer: dcaserve with tight rate limits,
# a short dcaload mixed-traffic run, then assertions that the report is
# well-formed, the limiter shed load (429s observed), and /metrics exposes
# moving counters in Prometheus text format.
load-smoke:
	./ci/load_smoke.sh

# End-to-end smoke of the oracle trace layer: record a 1k-instruction
# window with dcatrace, replay it through dcasim and a dcaserve -traced
# job, assert the result digests are bit-identical to the live run, and
# check that a truncated recording fails loudly.
trace-smoke:
	./ci/trace_smoke.sh

# End-to-end smoke of the introspection layer: run one cell plain and with
# the full probe stack (-attrib + -konata), assert bit-identical digests,
# a cycle attribution that sums to the measured cycles, a well-formed
# Konata trace, and a probed dcaserve submission whose attribution rides
# the response without touching the stored result.
probe-smoke:
	./ci/probe_smoke.sh

# Regenerate the reference benchmark records (BENCH_core.json,
# BENCH_clusters.json, BENCH_serve.json) with current environment metadata
# so the checked-in numbers cannot drift silently from the code.
bench:
	$(GO) run ./cmd/dcabenchref

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "files need gofmt:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Repository-specific static analysis (internal/lint via cmd/dcalint):
# determinism of digest-affecting packages, allocation-free //dca:hotpath
# functions, non-blocking queue critical sections, explicit json tags on
# the wire/digest structs. ci/ci_test.go runs the same suite in-process.
lint:
	$(GO) run ./cmd/dcalint ./...

ci: fmt vet lint build race perfbench-test cover fuzz serve-smoke worker-smoke load-smoke trace-smoke probe-smoke

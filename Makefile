GO ?= go
NCPU ?= $(shell nproc 2>/dev/null || echo 1)

.PHONY: all vet fmt-check lint manifest build test test-full bench-smoke fuzz-smoke check bench-go serve-demo clean

all: vet build test

vet:
	$(GO) vet ./...

# Gate on canonical simplified formatting: gofmt -s -l prints offending files.
fmt-check:
	@files=$$(gofmt -s -l .); if [ -n "$$files" ]; then \
		echo "gofmt -s needed on:"; echo "$$files"; exit 1; fi

# Project-invariant static analysis: the noalloc call graph, metric naming
# and registration discipline, the typed trace vocabulary, and sentinel-error
# hygiene, plus drift checks of docs/METRICS.md and docs/NOALLOC.md.
lint:
	$(GO) run ./cmd/topick-lint ./...

# Regenerate the lint-gated manifests after adding/renaming a metric or a
# //topick:noalloc annotation.
manifest:
	$(GO) run ./cmd/topick-lint -write-manifest

build:
	$(GO) build ./...

# Quick profile: the same suite CI runs.
test:
	TOPICK_QUICK=1 $(GO) test -race ./...

# Full experiment scale (slow).
test-full:
	$(GO) test -race ./...

# The benchmark harness (benchmark/, its own module, frozen between benchmark
# PRs) calls straight into internal/: its toy-size test (~2 s) fails here when
# an internal API change breaks it, not later in the benchmark pipeline.
bench-smoke:
	cd benchmark && $(GO) test ./...

# Each native fuzz target for 5 s past its checked-in corpus (testdata/fuzz,
# which plain `go test` already replays): completion-request lowering and
# admission and the X-Request-ID bound in httpapi, trace parsing in obs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCompletionRequest$$' -fuzztime 5s ./internal/httpapi/
	$(GO) test -run '^$$' -fuzz '^FuzzRequestID$$' -fuzztime 5s ./internal/httpapi/
	$(GO) test -run '^$$' -fuzz '^FuzzParseTrace$$' -fuzztime 5s ./internal/obs/

# The gate: static analysis (formatting, vet, topick-lint with its
# noalloc/metrics/trace/err discipline and manifest drift, build), the frozen
# benchmark harness's own test, the serving-stack packages under the race
# detector, and then three groups selected by test NAME over ./internal/...,
# so a new feature joins the gate by naming its test, not by editing this file:
#   - bit-exactness (BitExact|BitIdentical|MatchesSequential|Equivalence|
#     Deterministic): pinned to one core and to every core — schedule
#     diversity must never change a logit bit. TestEquivalenceLattice
#     (internal/equiv) is the one statement of it: every valid pair of axis
#     values plus today's matrices against the serial dense reference, and a
#     new feature joins it by adding an axis; the other names here pin
#     kernels, golden hashes and single-package invariants;
#   - concurrency (Race|Churn|Fairness|Requeue): under -race, uncached;
#   - allocation guards (ZeroAlloc|Allocs): without -race (race
#     instrumentation skews alloc counts, so the guards skip themselves there).
# The portable half of the assembly kernels comes first: the panel GEMV's and
# the exact-attention row kernels' packages and the masked-dot list kernel's
# (fixed, and core and attention, which call it) under the purego tag (Go
# loops everywhere, no assembly), serve's bit-exactness tests there too (the
# Go span loops over paged blocks against the dense cache), and
# the packages with assembly vetted for arm64, a cross-compile that needs no
# download.
EXACT_TESTS = BitExact|BitIdentical|MatchesSequential|Equivalence|Deterministic
check: fmt-check vet lint build bench-smoke
	$(GO) test -count=1 -tags purego ./internal/tensor/ ./internal/model/ ./internal/fixed/ ./internal/core/ ./internal/attention/
	$(GO) test -count=1 -tags purego -run '$(EXACT_TESTS)' ./internal/serve/
	GOARCH=arm64 $(GO) vet ./internal/tensor/ ./internal/model/ ./internal/fixed/
	TOPICK_QUICK=1 $(GO) test -race ./internal/fixed/ ./internal/core/ ./internal/attention/ ./internal/exec/ ./internal/model/ ./internal/obs/ ./internal/sample/ ./internal/serve/ ./internal/fleet/ ./internal/httpapi/ ./internal/bench/ ./internal/equiv/
	GOMAXPROCS=1 TOPICK_QUICK=1 $(GO) test -count=1 -run '$(EXACT_TESTS)' ./internal/...
	GOMAXPROCS=$(NCPU) TOPICK_QUICK=1 $(GO) test -count=1 -run '$(EXACT_TESTS)' ./internal/...
	TOPICK_QUICK=1 $(GO) test -race -count=1 -run 'Race|Churn|Fairness|Requeue' ./internal/...
	TOPICK_QUICK=1 $(GO) test -count=1 -run 'ZeroAlloc|Allocs' ./internal/...

# One-shot smoke run of every Go benchmark.
bench-go:
	TOPICK_QUICK=1 $(GO) test -run xxx -bench . -benchtime 1x ./...

serve-demo:
	$(GO) run ./cmd/topick-serve

clean:
	$(GO) clean ./...

# Development targets. `make check` is the gate every change must pass; the
# individual targets exist for quicker iteration. Every end-to-end assertion
# (fleet convergence, metrics reconciliation, triage dedup, trace
# reconciliation, the docs lint) is a `go test` case in internal/e2e, so
# `make test` — tier-1 — already runs it; see docs/TESTING.md.

GO ?= go

.PHONY: check vet build test race bench bench-gate

check: vet build test race bench-gate

# The second pass is what keeps the portable identity path (internal/ids
# without its amd64 assembly) compiling.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

build:
	$(GO) build ./...

# The second run pins goroutine identity and call-site attribution on the
# other physical frame layout: without inlining, every logical frame the
# attribution tests walk through is a frame of its own.
test:
	$(GO) test ./...
	$(GO) test -gcflags=all=-l ./internal/ids ./internal/collections ./internal/task

# The whole tree must stay clean under the race detector. TestMutantsAreKilled
# skips itself here: the go test runs it starts are never race-enabled.
race:
	$(GO) test -race ./...

# OnCall hot-path cost (see docs/PERFORMANCE.md for interpretation).
bench:
	GOMAXPROCS=8 $(GO) test -bench BenchmarkOnCallContention -benchtime 1s -run '^$$' .

# Hot-path regression gates: BenchmarkDictionarySetInstrumented (one call end
# to end; -Rotating over 16 owned objects, -SampledAuto when rejected),
# BenchmarkOnCallUncontended/TSVD (one goroutine),
# BenchmarkOnCallContention/TSVD/goroutines=1 (one per CPU) and
# /TSVD/sharedObj/goroutines=8 (all reading one object), and the trace
# BenchmarkEmit must stay under the ns/op thresholds committed in
# bench_gate.json (best of N runs; see cmd/tsvd-bench-gate for why the minimum
# is the estimator) and must not allocate.
bench-gate:
	$(GO) run ./cmd/tsvd-bench-gate

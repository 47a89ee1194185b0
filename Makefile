GO ?= go

.PHONY: all build test vet lint lint-tests lint-baseline lint-report test-race test-faults test-crash test-serve test-shard test-e2ebench fuzz bench bench-obs bench-flight bench-kernels bench-kernels-short experiments fast-experiments bench-serve bench-serve-short bench-shard-short fmt loc

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Project analyzers (internal/analysis): the intraprocedural determinism and
# numeric-safety lints plus the interprocedural call-graph suite (errwrap,
# ctxflow, detsource, hotalloc). Findings grandfathered in lint-baseline.json
# do not fail the run; new findings do, and -ratchet fails when baseline
# entries go stale (debt was paid down) until `make lint-baseline` re-commits
# the smaller file — the baseline only ever shrinks.
lint:
	$(GO) run ./cmd/fdxlint -baseline lint-baseline.json -ratchet ./...

# Lint _test.go files too. Checks whose flagged constructs are idiomatic in
# tests (floatcmp, nakedpanic, dimcheck) skip test files; maporder,
# goroutinecapture, and spanleak stay active there.
lint-tests:
	$(GO) run ./cmd/fdxlint -tests ./...

# Regenerate lint-baseline.json from the current findings.
lint-baseline:
	$(GO) run ./cmd/fdxlint -baseline lint-baseline.json -write-baseline ./...

# Machine-readable report (findings, baseline accounting, stale entries).
lint-report:
	$(GO) run ./cmd/fdxlint -json -baseline lint-baseline.json ./... > lint-report.json

# Race-detect the concurrent packages: the parallel transform and stratified
# covariance (internal/core, internal/stats), the worker pool
# (internal/par), the SIMD kernels (internal/linalg), the screened glasso's
# block fan-out (internal/glasso), the experiment harness's timed
# goroutines, and the root streaming API.
test-race:
	$(GO) test -race ./internal/core ./internal/stats ./internal/par ./internal/linalg ./internal/glasso ./internal/experiments ./internal/obs ./internal/serve/... .

# Fault-injection suite: every TestFault* test arms internal/faults points
# (poisoned covariance, forced non-convergence, bad pivots, slow stages,
# injected panics, torn checkpoint I/O) and asserts typed errors or
# degraded-but-valid results. Run under the race detector since injections
# exercise cancellation paths.
test-faults:
	$(GO) test -race -run 'Fault' ./internal/faults ./internal/core ./internal/glasso ./internal/checkpoint ./internal/serve .

# Crash-equivalence suite: kill the durable stream at every byte of its
# snapshot and WAL, restore, and require results identical to an
# uninterrupted run (or a typed corruption error) — never a panic.
test-crash:
	$(GO) test -race -run 'Crash' ./internal/checkpoint ./internal/serve .

# Service robustness suite: the race-enabled internal/serve tests (armed
# IngestStall/QueueFull/DrainTimeout faults under concurrent tenants,
# kill-and-resume bit-identity) plus the built-binary fdxd tests (SIGTERM
# drain under active ingest, kill -9 restart) and the stream drain tests.
test-serve:
	$(GO) test -race ./internal/serve/... ./cmd/fdxd
	$(GO) test -run 'TestStream' ./cmd/fdx

# Sharded-discovery chaos suite under the race detector: the supervised
# `fdx stream -shards` workers with ShardCrash/ShardStall/MergeCorrupt
# armed (crash at every checkpoint boundary → bit-identical to the 1-shard
# run), the shard-shipping service API (idempotent seq handling, corrupt
# and mismatched snapshots rejected typed), the built-binary fdxd
# kill-and-resume ship test, and the library-level determinism sweep.
test-shard:
	$(GO) test -race -run 'Shard' ./cmd/fdx ./internal/serve/... ./cmd/fdxd .

# The end-to-end benchmark's own tests (short variants of every workload,
# offline, ~10s). e2ebench is a module of its own, so `go test ./...` at the
# root does not reach it; its batch check holds fdx.DiscoverContext to the
# dense layer chain bit for bit.
test-e2ebench:
	cd e2ebench && $(GO) test ./...

# Short local fuzz campaigns over the public entry points and the pair
# kernel.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDiscover -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzPairMoments -fuzztime 30s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzLoadCheckpoint -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzMergeSnapshot -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzFlightDecode -fuzztime 30s ./internal/obs/flight

# Telemetry micro-benchmarks plus the end-to-end overhead gate: a Discover
# with live tracer+metrics must stay within 2% of a nil-sink run.
bench-obs:
	$(GO) test -run '^$$' -bench Obs -benchmem ./internal/obs
	FDX_OBS_OVERHEAD=1 $(GO) test -run TestObsOverhead -v .

# Flight-recorder micro-benchmarks (per-sample encode cost, decode
# throughput) plus the always-on gate: a metric-hammering workload with a
# live 1 Hz recorder must stay within 2% of the same workload without one.
bench-flight:
	$(GO) test -run '^$$' -bench Flight -benchmem ./internal/obs/flight
	FDX_FLIGHT_OVERHEAD=1 $(GO) test -run TestFlightOverhead -v ./internal/obs/flight

# One testing.B benchmark per paper table/figure (reduced scale), plus the
# checkpoint streaming benchmark (BENCH_stream.json).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .
	$(GO) run ./cmd/fdxbench -stream BENCH_stream.json

# Numeric-kernel benchmark: the screened Graphical Lasso against its dense
# reference on wide planted-block covariances (p = 256, 512, 1024), absorb
# throughput, and steady-state allocation counts. Gates the fresh run
# against the committed baseline (speedup ratios with 10% slack; allocs
# exactly), then refreshes BENCH_kernels.json.
bench-kernels:
	$(GO) run ./cmd/fdxbench -kernels BENCH_kernels.json -compare BENCH_kernels.json

# CI smoke variant: reduced sizes and repetitions (wide section at p=256
# only, which keeps the dense reference solve affordable), gated against
# the committed baseline without touching it.
bench-kernels-short:
	$(GO) run ./cmd/fdxbench -kernels /tmp/BENCH_kernels_ci.json -short -compare BENCH_kernels.json

# Service benchmark: multi-tenant ingest throughput over HTTP, discover
# latency quantiles, and the shed rate under deliberate overload
# (BENCH_serve.json).
bench-serve:
	$(GO) run ./cmd/fdxbench -serve BENCH_serve.json

# CI smoke variant: reduced workload, report left in /tmp.
bench-serve-short:
	$(GO) run ./cmd/fdxbench -serve /tmp/BENCH_serve_ci.json -short

# CI smoke variant of the shard-merge scaling section: reduced rows,
# report left in /tmp (the committed BENCH_stream.json carries the full
# run via `fdxbench -stream BENCH_stream.json -shards`).
bench-shard-short:
	$(GO) run ./cmd/fdxbench -stream /tmp/BENCH_stream_ci.json -fast -shards

# Regenerate every paper table/figure at report scale (slow).
experiments:
	$(GO) run ./cmd/fdxbench -exp all

# Quick pass over every experiment.
fast-experiments:
	$(GO) run ./cmd/fdxbench -exp all -fast

fmt:
	gofmt -w .

loc:
	@find . -name '*.go' | xargs wc -l | tail -1

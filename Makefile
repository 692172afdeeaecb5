GO ?= go

.PHONY: check fmt vet lint build test race race-pipeline race-serve fuzz bench bench-smoke bench-test bench-all bench-stream scale-check stream-check obs-smoke soak soak-smoke serve-smoke

# The full pre-submit gate.
check: fmt vet lint build race race-pipeline race-serve fuzz obs-smoke bench-smoke bench-test soak-smoke stream-check serve-smoke

# Every Go file is gofmt-formatted: fails listing the files that are not.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Repo-specific invariants (determinism, sort totality, CompID discipline,
# obs handle safety, recover containment, spec-only configuration, context
# flow) enforced by the seven per-function analyzers of the mslint suite.
# Suppress a finding with `//mslint:allow <analyzer> <reason>` on the
# flagged line or the line above it.
lint:
	$(GO) run ./cmd/mslint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 30m ./...

# The parallel diagnosis pipeline must be race-free and deterministic at
# any GOMAXPROCS; -cpu=1,4,8 runs its tests sequential, moderate, and wide,
# so workers claim victims and memo keys in different interleavings.
race-pipeline:
	$(GO) test -race -timeout 30m -cpu=1,4,8 ./internal/pipeline

# The multi-tenant serving tier at the same GOMAXPROCS spread: tenant
# registry, drain fan-out, hook runner, and backpressure interleave
# differently at one P than at eight, and the goroutine-leak checks in
# these tests only mean something when the schedules vary.
race-serve:
	$(GO) test -race -timeout 30m -cpu=1,4,8 ./internal/serve/...

# The decoders must survive adversarial bytes, and the JSON one must agree
# with json.Unmarshal on every input; the MST2 frame reader must see the
# frames AppendDecodeStream decodes, and the store tracestore.Load builds
# from them must be the one Build makes from the decoded records;
# AutoFocus must agree with its oracle
# on generated leaf tables; the spec parser and the trace-metadata reader
# must never panic, and what they accept must round-trip to a fixed point
# (a spec after resolving). Crashers land in
# the package's testdata/fuzz/ and become regression inputs. -fuzz must
# match exactly one target, hence the anchors. FuzzLoad builds two stores
# an input, so minimizing each new input for the default minute would
# take the whole run: it is capped at 100 executions.
fuzz:
	$(GO) test -fuzz='^FuzzDecode$$' -fuzztime=10s ./internal/collector
	$(GO) test -fuzz='^FuzzLoad$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/tracestore
	$(GO) test -fuzz='^FuzzDecodeJSON$$' -fuzztime=10s ./internal/collector
	$(GO) test -fuzz='^FuzzParseMeta$$' -fuzztime=10s ./internal/collector
	$(GO) test -fuzz='^FuzzAggregate$$' -fuzztime=10s ./internal/autofocus
	$(GO) test -fuzz='^FuzzParseSpec$$' -fuzztime=10s ./internal/spec

# Pipeline throughput (ns/op, victims/s, B/op, allocs/op per worker
# count). The benchmark gates itself: it fails when, in either family
# (workers=N, observed/workers=N), the widest case is slower than the
# narrowest in the same run (skipped at GOMAXPROCS=1).
bench:
	$(GO) test -run '^$$' -bench BenchmarkDiagnosePipeline -benchmem ./internal/pipeline

# The same cross-worker-count scaling gate at a short benchtime: catches a
# refactor that serialized the hot path.
scale-check:
	$(GO) test -run '^$$' -bench BenchmarkDiagnosePipeline -benchtime 2x ./internal/pipeline

# Streaming window-loop benchmark: mode=full (the cold reference: rebuild
# the pipeline every flush) against mode=incr (StreamState.RunWindow over
# retained stream state, what the monitor runs) on the same window
# schedule. The benchmark fails when mode=incr is less than 3x faster per
# op than mode=full in the same run.
bench-stream:
	$(GO) test -run '^$$' -bench BenchmarkStreamingWindows -benchtime 3x -benchmem ./internal/pipeline

# The incremental-vs-rebuild equivalence suite under -race: every window's
# incremental report must be byte-identical to a cold rebuild of the same
# window at every worker count, plus the stream-grid unit tests. This is
# the streaming index's correctness contract; run it before touching
# tracestore/stream.go, pipeline/stream.go or the monitor's handoff in
# online/online.go. Also under -race here: derive, the one step that makes
# a store, called through the seal's reused scratch and recycled shells
# against a cold Build's fresh ones (TestSealScratchReuseEquivalence), its
# summaries and period search arrays against a test-only scan
# (TestDeriveSummariesMatchScan), the segment size estimate
# (TestSegmentSizeBytes), Advance skipping records it already sealed
# (TestAdvance*), the steady-state allocation bounds, the window store
# (TestWindow*): updated in place against assembled from scratch, column by
# column, and its index against the same scan, over generated schedules —
# skipped rungs, gaps, undeclared components coming and going, contained
# faults half-way through an update — that nothing outlives its seal
# (TestPoisonedInputAfterSeal: input overwritten after Advance changes no
# report; TestSealedPayloadReleased: a body's payload slab is collected once
# its window settles), the seal-boundary pin (TestSealBoundaryUnmatched),
# and the monitor's handoff of its pending buffer to the stream: every
# reported window against a cold rebuild, runs against one record at a
# time, every offered record accounted for once, the backlog gauge, and the
# ladder's whole-window count. The cold rebuilds are tracestore.Recorder's,
# from its own copies of the sealed runs.
stream-check:
	$(GO) test -race -timeout 30m -run 'TestIncrementalEquivalence|TestStream|TestSegOf|TestSeal|TestDerive|TestSegmentSize|TestAdvance|TestThreadInternal|TestWindow|TestPoisonedInputAfterSeal' ./internal/pipeline ./internal/tracestore
	$(GO) test -race -timeout 30m -run 'TestMonitorWindowsMatchRebuild|TestFeedRuns|TestShedAccounting|TestBacklogCountsUnsealed|TestLadderCountsWholeWindow|TestSealedPayloadReleased' ./internal/online

# One-iteration pipeline, simulator, segment-seal, window-assembly,
# pattern-aggregation, JSON-decode and ingest benchmarks: catches benchmark
# bit-rot and gross perf/alloc regressions in the pre-submit gate without
# the full run's cost. BenchmarkWindow gates itself: it fails when a
# window's cost moves with its span (1.5, 20 and 80 slides at one slide); so does
# BenchmarkDiagnosePipeline's scaling gate (see bench).
# BenchmarkDecodeJSON prints ns/record and allocs/record for json.Unmarshal
# (unmarshal) and collector.DecodeJSON (decode) on the same bodies, and
# BenchmarkDecodeStream the same for collector.AppendDecodeStream on
# 2000-record MST2 bodies of the 16-NF trace, each decoded into the
# previous one's storage as msserve does.
# BenchmarkIngest prints ns/record, B/record and allocs/body for 2000-record
# MST2 and JSON bodies posted through serve.Handler to a warm tenant.
# BenchmarkSimulator prints ns/record and allocs/op for one fixed-seed 10 ms
# eval-topology run and its Trace(); it runs before the tracestore line so a
# red BenchmarkWindow does not hide it.
bench-smoke:
	$(GO) test -run '^$$' -bench BenchmarkDecodeJSON -benchtime=1x -benchmem ./internal/collector
	$(GO) test -run '^$$' -bench BenchmarkDecodeStream -benchtime=1x -benchmem ./internal/collector
	$(GO) test -run '^$$' -bench BenchmarkIngest -benchtime=1x ./internal/serve
	$(GO) test -run '^$$' -bench BenchmarkDiagnosePipeline -benchtime=1x -benchmem ./internal/pipeline
	$(GO) test -run '^$$' -bench '^BenchmarkSimulator$$' -benchtime=1x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkSeal|BenchmarkWindow' -benchtime=1x -benchmem ./internal/tracestore
	$(GO) test -run '^$$' -bench BenchmarkPatternAggregation -benchtime=1x -benchmem .

# bench/ is a module of its own (microscope/bench, `replace microscope =>
# ../`), so the root `go vet ./...` and `go test ./...` never compile it —
# and it imports online, pipeline, serve, collector and spec. Vet it and
# run its own tests at their small size, so a change to one of those entry
# points breaks here and not in the next benchmark run.
bench-test:
	cd bench && $(GO) vet . && $(GO) test -short .

# Observability hot-path overhead: the disabled path (nil registry) must
# stay at a few nanoseconds per event with zero allocations, and the
# enabled counter/histogram paths must stay allocation-free.
obs-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkObs' -benchmem ./internal/obs

bench-all:
	$(GO) test -bench=. -benchmem ./...

# The full overload/chaos soak: >=1000 windows of injected overload,
# transport corruption, truncation, and panics through the online path,
# under -race.
soak:
	$(GO) test -race -timeout 30m ./internal/resilience/chaostest

# The same harness at smoke size (-short: 300 windows), for the
# pre-submit gate and CI.
soak-smoke:
	$(GO) test -race -short -timeout 10m ./internal/resilience/chaostest

# The serving tier's fast gate under -race: the msserve daemon smoke
# (boot tenant from a spec file, HTTP ingest/report, graceful drain),
# mslive as a single-tenant front end (alerts equal to a bare monitor's),
# the HTTP API lifecycle, the backpressure contract, registry calls that
# must answer while a tenant's drain is parked (Delete and Update drain
# outside the server lock), and the hook runner's
# retry/breaker/containment behaviour. The heavyweight
# 8-tenant fingerprint-isolation soak runs in `make race` with the rest
# of the suite.
serve-smoke:
	$(GO) test -race -timeout 10m -run 'TestServeSmoke|TestLive|TestServeHTTPLifecycle|TestServeBinaryIngest|TestBackpressure|TestShutdownUnderLoad|TestRegistryAnswersDuringDrain|TestHook' ./cmd/msserve ./cmd/mslive ./internal/serve

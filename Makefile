# Tier-1 verification lives in ROADMAP.md; `make ci` is the superset run
# in CI: vet + build + race-enabled tests across every package, then the
# same race run again with the parallel engine forced on.

GO ?= go

# Worker count the race-parallel step forces through EXPRESSO_WORKERS.
# Options.Workers==0 and service EngineWorkers==0 resolve to this, so the
# whole suite — including the service path — exercises the multi-goroutine
# engine under the race detector.
RACE_WORKERS ?= 4

.PHONY: ci vet staticcheck build test race race-parallel race-service bench-quick bench-incremental bench-trace bench-bdd bench-store bench-workers bench-delta bench-memwatermark bench-reorder store-check gate-check trace-check reorder-check alloc-guard

ci: vet staticcheck build race race-parallel store-check gate-check trace-check reorder-check alloc-guard

vet:
	$(GO) vet ./...

# Static analysis beyond vet. The binary is not vendored and CI images may
# not have it; degrade to a note instead of failing the gate.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build ./...

# Tier-1: the fast correctness gate.
test:
	$(GO) test ./...

# Full race-enabled run (slower; the service package must stay race-clean).
# Race runtime is ~10-20x on a single-core box, so the timeout carries
# headroom over the 10m default; the full-network profile test skips
# itself under race (prof_test.go) — it alone would need ~30min.
race:
	$(GO) test -race -timeout 30m ./...

# The packages with parallel hot paths, race-checked with the concurrent
# engine forced on for every verification (not just tests that opt in).
# The root package's own determinism/race tests already pin Workers
# explicitly, so they are covered by the plain `race` run above.
race-parallel:
	EXPRESSO_WORKERS=$(RACE_WORKERS) $(GO) test -race -timeout 30m -count=1 ./internal/bdd/ ./internal/epvp/ ./internal/spf/ ./internal/service/

# Just the verification daemon under the race detector.
race-service:
	$(GO) test -race ./internal/service/...

# Quick benchmark of the end-to-end pipeline across worker counts; full
# sweeps are cmd/expresso-bench. Recorded numbers: BENCH_pr2.json.
bench-quick:
	$(GO) test . -run XXX -bench 'BenchmarkVerifyRegion1' -benchmem -benchtime=3x

# Cold-vs-warm incremental verification on region 1: BenchmarkVerifyRegion1
# is the cold baseline (full Load+SRC per op), BenchmarkVerifyRegion1WarmDelta
# re-verifies a one-router delta warm-started from the cached fixed point.
# Records both into BENCH_pr3.json.
bench-incremental:
	$(GO) test . -run XXX -bench 'BenchmarkVerifyRegion1$$|BenchmarkVerifyRegion1Warm(Delta|Local)$$' \
		-benchmem -benchtime=3x | tee /tmp/bench_incremental.out
	awk -f scripts/bench_incremental.awk /tmp/bench_incremental.out > BENCH_pr3.json
	@cat BENCH_pr3.json

# Tracing cost on region 1: BenchmarkVerifyRegion1 is the nil-tracer
# baseline, BenchmarkVerifyRegion1Traced attaches a run-scoped tracer
# (per-round EPVP snapshots, SPF events). Each benchmark runs in its own
# process — back to back in one `go test` the second inherits the first's
# grown heap and pays its GC debt, which dwarfs the tracing delta being
# measured. Records both into BENCH_pr4.json, then runs the tier-2
# overhead assertion (<5%, see TestTraceOverhead).
bench-trace:
	$(GO) test . -run XXX -bench 'BenchmarkVerifyRegion1$$' \
		-benchmem -benchtime=5x | tee /tmp/bench_trace.out
	$(GO) test . -run XXX -bench 'BenchmarkVerifyRegion1Traced$$' \
		-benchmem -benchtime=5x | tee -a /tmp/bench_trace.out
	awk -f scripts/bench_trace.awk /tmp/bench_trace.out > BENCH_pr4.json
	@cat BENCH_pr4.json
	EXPRESSO_TRACE_OVERHEAD=1 $(GO) test . -run TestTraceOverhead -count=1 -v -timeout 30m

# BDD microbenchmarks of the PR-5 hot-path overhaul: specialized apply
# kernels vs the generic ITE entry point, complement-edge negation chains,
# and the dead-node sweep pause — plus the region-1 end-to-end run they
# add up to. Records everything into BENCH_pr5.json against the PR-4
# region-1 baseline baked into scripts/bench_bdd.awk.
bench-bdd:
	$(GO) test ./internal/bdd/ -run XXX \
		-bench 'BenchmarkApplyKernels$$|BenchmarkApplyViaITE$$|BenchmarkNegationChain$$|BenchmarkITEChain$$|BenchmarkReclaim$$' \
		-benchmem -benchtime=2000x | tee /tmp/bench_bdd.out
	$(GO) test . -run XXX -bench 'BenchmarkVerifyRegion1$$' \
		-benchmem -benchtime=5x | tee -a /tmp/bench_bdd.out
	awk -f scripts/bench_bdd.awk /tmp/bench_bdd.out > BENCH_pr5.json
	@cat BENCH_pr5.json

# Artifact-store gate: the disk-warm determinism matrix (byte-identical
# reports across fixtures, worker counts, and forced reclamation sweeps),
# the shared-directory replica scenario, corruption/version-mismatch
# injection, and the memory-eviction interaction — plus the store and
# codec unit tests (framing, LRU eviction, tmp sweep, import fuzz seeds).
store-check:
	$(GO) test . -run 'TestStore' -count=1 -timeout 15m
	$(GO) test -count=1 ./internal/store/ ./internal/bdd/ ./internal/automaton/

# Store pricing on region 1: scratch pipeline vs a cold process
# deserializing every stage from a populated store directory vs the
# in-memory cache ceiling.
bench-store:
	$(GO) test . -run XXX -bench 'BenchmarkStoreRegion1(Cold|DiskWarm|MemWarm)$$' \
		-benchmem -benchtime=3x | tee /tmp/bench_store.out
	awk -v cores=$$(nproc) -f scripts/bench_store.awk /tmp/bench_store.out

# The PR-6 recorded numbers: the region-1 engine worker sweep (workers
# 1, 2, 4) plus the store cold/disk-warm/mem-warm trio, into
# BENCH_pr6.json. The environment note records the core count — on a
# single-core box the sweep prices coordination overhead, not speedup.
bench-workers:
	$(GO) test . -run XXX -bench 'BenchmarkVerifyRegion1Parallel$$' \
		-benchmem -benchtime=3x | tee /tmp/bench_pr6.out
	$(GO) test . -run XXX -bench 'BenchmarkStoreRegion1(Cold|DiskWarm|MemWarm)$$' \
		-benchmem -benchtime=3x | tee -a /tmp/bench_pr6.out
	awk -v cores=$$(nproc) -f scripts/bench_store.awk /tmp/bench_pr6.out > BENCH_pr6.json
	@cat BENCH_pr6.json

# The PR-8 recorded numbers: the cold region-1 run vs the baseline-delta
# path (a one-router patch verified against a registered, pinned
# baseline) vs a burst of 8 superseding deltas absorbed by the coalescing
# queue. Records all three into BENCH_pr8.json; the delta path must come
# out well ahead of cold (the acceptance bar is 2x).
bench-delta:
	$(GO) test . -run XXX -bench 'BenchmarkVerifyRegion1$$|BenchmarkDeltaRegion1(Baseline|CoalescedBurst)$$' \
		-benchmem -benchtime=3x | tee /tmp/bench_delta.out
	awk -f scripts/bench_delta.awk /tmp/bench_delta.out > BENCH_pr8.json
	@cat BENCH_pr8.json

# CI gate semantics: `expresso gate` exit codes (no change and fixed
# violations pass, new violations fail) plus the baseline/delta
# byte-identity acceptance tests behind them.
gate-check:
	$(GO) test . -run 'TestGate|TestBaseline' -count=1

# Trace-analysis gate: the end-to-end `expresso trace diff` attribution
# golden test (an injected spf slowdown must be flagged, attributed to
# spf, and nothing else may drift), the traced-run structure checks, and
# the traceview unit suite behind the CLI.
trace-check:
	$(GO) test . -run 'TestTraceDiffGolden|TestVerifyTextTrace|TestVerifyTrace' -count=1
	$(GO) test -count=1 ./internal/traceview/

# Dynamic-reordering gate: the forced-sifting determinism matrix (byte-
# identical reports across worker counts, reclamation schedules, and a
# disk-warm restart), the static-order testnet assertion, and the sifting
# engine's unit suite (swap canonicity, order-independent fingerprints,
# cross-order serialization).
reorder-check:
	$(GO) test . -run 'TestReorderDeterminismMatrix|TestReorderDiskWarmByteIdentical' -count=1 -timeout 15m
	$(GO) test ./internal/epvp/ -run 'TestInterleavedOrderShrinksTestnet' -count=1
	$(GO) test -count=1 ./internal/bdd/

# The PR-10 recorded numbers: the region-1 memory watermark under the
# interleaved static order alone and with a forced sifting budget,
# with deltas against the PR-9 blocked-order baseline, into
# BENCH_pr10.json.
bench-reorder:
	EXPRESSO_BENCH_REORDER=1 $(GO) test . -run TestRegion1ReorderBench -count=1 -v -timeout 30m
	@cat BENCH_pr10.json

# Memory watermark on region 1: one traced verification, recording the
# schedule-independent peak live BDD nodes/bytes (sampled at reclaim
# entry, EPVP round barriers, and SPF completion) into BENCH_pr9.json.
bench-memwatermark:
	EXPRESSO_MEM_WATERMARK=1 $(GO) test . -run TestRegion1MemWatermark -count=1 -v -timeout 30m
	@cat BENCH_pr9.json

# Allocation-regression guard: one cold region-1 verification must stay
# under the byte and object ceilings in alloc_guard_test.go, and its policy
# compile under the created-BDD-node ceiling. The test skips itself without
# the env knob, so plain `go test ./...` stays fast.
alloc-guard:
	EXPRESSO_ALLOC_GUARD=1 $(GO) test . -run TestRegion1AllocGuard -count=1 -v -timeout 15m

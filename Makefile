# Tier-1 verification lives in ROADMAP.md; `make ci` is the superset run
# in CI: a gofmt check of every tracked Go file, vet + build + race-enabled
# tests across every package, then the four steps that cover what that run
# does not — the same race run with the parallel engine forced on, the
# engine and daemon-facing packages with a sweep at every barrier, a short
# fuzz of every store-blob decoder, of the configuration-text front door
# and of SPF's conversion kernel, and the env-gated allocation guard. The
# four *-check targets select tests `race` has already run: they are
# shortcuts for working on one subsystem, not CI steps.

GO ?= go

# Worker count the race-parallel step forces through EXPRESSO_WORKERS.
# Options.Workers==0 and service EngineWorkers==0 resolve to this, so the
# whole suite — including the service path — exercises the multi-goroutine
# engine under the race detector.
RACE_WORKERS ?= 4

.PHONY: ci fmt vet staticcheck build test race race-parallel reclaim-matrix race-service bench bench-compare paper-quick store-check fuzz-smoke gate-check trace-check alloc-guard loc

ci: fmt vet staticcheck build race race-parallel reclaim-matrix fuzz-smoke alloc-guard

# Every tracked Go file is gofmt-clean; listing tracked files keeps build
# output such as .bench_build/ out of the check.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

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
# Race runtime is ~10-20x, so the timeout carries headroom over the 10m
# default.
race:
	$(GO) test -race -timeout 30m ./...

# The packages with parallel hot paths, race-checked with the concurrent
# engine forced on for every verification (not just tests that opt in).
# The pipeline is among them: every fan-out over a BDD manager runs on the
# manager's kept workers, and its run lock is the one thing that keeps two
# runs off them. The root package's own determinism/race tests already
# pin Workers explicitly, so they are covered by the plain `race` run above.
race-parallel:
	EXPRESSO_WORKERS=$(RACE_WORKERS) $(GO) test -race -timeout 30m -count=1 ./internal/bdd/ ./internal/epvp/ ./internal/spf/ ./internal/pipeline/ ./internal/service/

# The packages that share one BDD manager between runs — the pipeline, the
# daemon and the root package's baseline/delta tests — and the engine
# package that roots a run's memo, with a dead-node sweep at every EPVP
# round and every pre-SPF barrier: anything a run leaves filed or pinned
# that it should not, or fails to root, is swept or roots a sweep here.
# (The engine's barrier tests pin their own budgets.)
reclaim-matrix:
	EXPRESSO_RECLAIM=200 $(GO) test -count=1 -timeout 30m ./internal/epvp ./internal/pipeline ./internal/service .

# Just the verification daemon under the race detector.
race-service:
	$(GO) test -race ./internal/service/...

# The benchmark BENCHMARK.json declares (benchmark/README.md): four
# workloads, four end-to-end metrics each; ARGS="-trace 1" runs the traced
# variant, which reports the per-layer metrics instead. Arguments pass
# through, e.g. `make bench ARGS="-runs 10 -out A.json"`.
bench:
	bash benchmark/run.sh $(ARGS)

# Compare two result sets written with `-out`: bound plus floor on every
# end-to-end metric, exact repetition of the count rows; exit 1 on a breach.
bench-compare:
	bash benchmark/run.sh -compare $(A) $(B)

# The paper's evaluation (EXPERIMENTS.md) at reduced scale: all nine
# experiments of cmd/expresso-bench, every row under a 20 s budget, ~2 min.
# Drop -quick (and raise -budget) for the run EXPERIMENTS.md records.
paper-quick:
	$(GO) run ./cmd/expresso-bench -all -quick -budget 20s

# Developer shortcut, not a CI step (`race` runs every test here): the
# artifact store's disk-warm determinism matrix (byte-identical reports
# across fixtures, worker counts, and forced reclamation sweeps),
# the shared-directory replica scenario, corruption/version-mismatch
# injection, and the memory-eviction interaction — plus the store, wire
# and codec unit tests (framing, LRU eviction, tmp sweep, golden blobs,
# count bounds, fuzz seeds) and a short fuzz of every decoder.
store-check: fuzz-smoke
	$(GO) test . -run 'TestStore' -count=1 -timeout 15m
	$(GO) test -count=1 ./internal/store/ ./internal/wire/ ./internal/bdd/ ./internal/automaton/ ./internal/pipeline/

# Five seconds of coverage-guided fuzzing per target on top of its seed
# corpus (-fuzz takes one target in one package per run): a store directory
# is untrusted input, and so is configuration text, so each decoder of a
# store blob, the config parser, its parse against a baseline's sections
# and the diff/patch pair are fuzzed; so is
# the BDD kernel SPF's conversion runs on (bdd.Worker.Convert), against a
# restrict-then-rename reference under random static orders. A crasher
# lands in the package's testdata/fuzz/ and fails every later `go test`
# until it is fixed.
fuzz-smoke:
	$(GO) test ./internal/config/ -run '^$$' -fuzz '^FuzzParseConfigs$$' -fuzztime 5s
	$(GO) test ./internal/config/ -run '^$$' -fuzz '^FuzzDiffApply$$' -fuzztime 5s
	$(GO) test ./internal/config/ -run '^$$' -fuzz '^FuzzParseAgainst$$' -fuzztime 5s
	$(GO) test ./internal/bdd/ -run '^$$' -fuzz '^FuzzImport$$' -fuzztime 5s
	$(GO) test ./internal/bdd/ -run '^$$' -fuzz '^FuzzConvert$$' -fuzztime 5s
	$(GO) test ./internal/automaton/ -run '^$$' -fuzz '^FuzzImport$$' -fuzztime 5s
	$(GO) test ./internal/pipeline/ -run '^$$' -fuzz '^FuzzDecodeSRC$$' -fuzztime 5s
	$(GO) test ./internal/pipeline/ -run '^$$' -fuzz '^FuzzDecodeAnalysis$$' -fuzztime 5s
	$(GO) test ./internal/pipeline/ -run '^$$' -fuzz '^FuzzDecodeSPF$$' -fuzztime 5s

# Developer shortcut, not a CI step (`race` runs every test here):
# `expresso gate` exit codes (no change and fixed violations pass, new
# violations fail) plus the baseline/delta byte-identity acceptance tests
# behind them, and the CLI's own exit codes (a property selection no stage
# runs exits 2).
gate-check:
	$(GO) test . -run 'TestGate|TestBaseline' -count=1
	$(GO) test ./cmd/expresso -run Gate -count=1

# Developer shortcut, not a CI step (`race` runs every test here): the
# end-to-end `expresso trace diff` attribution golden test (an injected
# spf slowdown must be flagged, attributed to
# spf, and nothing else may drift), the traced-run structure checks, and
# the traceview unit suite behind the CLI.
trace-check:
	$(GO) test . -run 'TestTraceDiffGolden|TestVerifyTextTrace|TestVerifyTrace' -count=1
	$(GO) test -count=1 ./internal/traceview/

# Allocation-regression guard: one cold region-1 verification must stay
# under the byte and object ceilings in alloc_guard_test.go, its policy
# compile and its SPF stage each under a created-BDD-node ceiling, a
# one-worker region-1 delta under its router-recompute and length-slice
# conversion ceilings, a one-worker region-4 EPVP run under its
# op-cache-miss and created-node ceilings, its op caches within
# 2 × OpCacheMaxSlots slots and its unique table within 24 bytes per live
# node, SPF on its result under a created-node ceiling and its block
# ranking creating none, and a one-worker full-old EPVP run under its
# op-cache-miss ceiling (its wall time is logged). The test skips
# itself without the env knob, so plain `go test ./...` stays fast.
alloc-guard:
	EXPRESSO_ALLOC_GUARD=1 $(GO) test . -run TestRegion1AllocGuard -count=1 -v -timeout 15m

# The non-test Go line count outside benchmark/ that every CHANGES.md entry
# quotes.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l

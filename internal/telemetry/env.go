package telemetry

import (
	"log/slog"
	"os"
	"strconv"
	"sync"
)

// warnedWorkers deduplicates the malformed-EXPRESSO_WORKERS warning: the
// knob is read on every engine construction, and a bad value should not
// spam one warning per verification.
var warnedWorkers sync.Once

// WorkersFromEnv parses the EXPRESSO_WORKERS environment variable — the
// CI knob that forces the parallel engine paths (e.g. under the race
// detector) — and returns the worker count it requests, or 0 when unset.
// A malformed or non-positive value returns 0 after logging a warning
// (once per process): the old per-callsite parsers silently fell back,
// which made a typo'd knob indistinguishable from an absent one.
//
// This is the only parser of the variable; expresso.Options, the EPVP
// engine, and the service all resolve their worker defaults through it.
func WorkersFromEnv() int {
	env := os.Getenv("EXPRESSO_WORKERS")
	if env == "" {
		return 0
	}
	n, err := strconv.Atoi(env)
	if err != nil || n <= 0 {
		warnedWorkers.Do(func() {
			slog.Warn("ignoring malformed EXPRESSO_WORKERS (want a positive integer)", "value", env)
		})
		return 0
	}
	return n
}

// warnedReclaim and warnedReorder deduplicate the malformed-budget
// warnings, for the same reason as warnedWorkers.
var warnedReclaim, warnedReorder sync.Once

// budgetFromEnv parses a node-growth budget variable: "off" disables the
// mechanism, a positive integer overrides the budget, and unset or
// malformed values fall back to def (with a once-per-process warning when
// malformed).
func budgetFromEnv(name string, def int, warned *sync.Once) (budget int, enabled bool) {
	env := os.Getenv(name)
	switch env {
	case "":
		return def, true
	case "off":
		return 0, false
	}
	n, err := strconv.Atoi(env)
	if err != nil || n <= 0 {
		warned.Do(func() {
			slog.Warn("ignoring malformed "+name+" (want a positive integer or \"off\")", "value", env)
		})
		return def, true
	}
	return n, true
}

// DefaultReclaimBudget is the between-round dead-node reclamation trigger
// when EXPRESSO_RECLAIM is unset: sweep once at least this many nodes have
// been hash-consed since the last sweep (or the start of the run). Sized so
// short verifications never pause for a sweep while long fixed points and
// warm-start chains keep their live heap bounded.
const DefaultReclaimBudget = 2 << 20

// ReclaimBudgetFromEnv parses the EXPRESSO_RECLAIM environment variable:
// "off" disables dead-node reclamation at the engine's barriers, a positive
// integer overrides the node-growth budget that triggers a sweep (tests use
// tiny values to force sweeps on small networks). This is the only parser
// of the variable.
func ReclaimBudgetFromEnv() (budget int, enabled bool) {
	return budgetFromEnv("EXPRESSO_RECLAIM", DefaultReclaimBudget, &warnedReclaim)
}

// DefaultReorderBudget is the sift trigger ReorderBudgetFromEnv returns
// when EXPRESSO_REORDER is unset: at least this many hash-consed nodes.
const DefaultReorderBudget = 1 << 24

// ReorderBudgetFromEnv parses the EXPRESSO_REORDER environment variable:
// "off" disables sifting, a positive integer overrides the node budget
// that triggers one. The engine does not read it, because its barriers
// only sweep. Its one caller is benchmark/walk.go, whose pre-SPF barrier
// still sifts past this budget.
func ReorderBudgetFromEnv() (budget int, enabled bool) {
	return budgetFromEnv("EXPRESSO_REORDER", DefaultReorderBudget, &warnedReorder)
}

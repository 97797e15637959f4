package epvp

import (
	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/telemetry"
)

// Pressure is what a quiescent barrier weighs against the two memory
// budgets: Sift against EXPRESSO_REORDER, Sweep against EXPRESSO_RECLAIM.
// The caller picks the quantity — nodes created since the last pass at an
// EPVP round end, the live population before SPF — and it must be
// schedule-independent there, so that every worker count takes the same
// decision at the same barrier (the determinism invariant).
type Pressure struct {
	Sift, Sweep int64
}

// Relief is what a barrier did about the pressure: the counters a
// telemetry.RoundEvent carries.
type Relief struct {
	Sweeps, SweptNodes, SweepNS int64
	Sifts                       int64
	Sift                        bdd.ReorderResult
}

// Relieve is the one sweep-or-sift decision: sift when the pressure is
// over the reorder budget, else sweep when it is over the reclaim budget.
// A sift pass reclaims on entry, so at most one of the two stop-the-world
// passes runs. Everything unreachable from roots() and the manager's pins
// is freed; roots is only called when a pass runs. The caller must
// guarantee the quiescence Reclaim and Reorder demand — no concurrent use
// of the manager or its workers — and orders whatever resumes after it.
func Relieve(m *bdd.Manager, p Pressure, roots func() []bdd.Node) Relief {
	if budget, on := telemetry.ReorderBudgetFromEnv(); on && p.Sift >= int64(budget) {
		return Relief{Sifts: 1, Sift: m.Reorder(roots()...)}
	}
	if budget, on := telemetry.ReclaimBudgetFromEnv(); on && p.Sweep >= int64(budget) {
		before := m.ReclaimStats().Pause
		freed := m.Reclaim(roots()...)
		return Relief{Sweeps: 1, SweptNodes: int64(freed), SweepNS: int64(m.ReclaimStats().Pause - before)}
	}
	return Relief{}
}

package epvp

import (
	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/telemetry"
)

// Relief is what a barrier did about its memory pressure: the counters a
// telemetry.RoundEvent carries.
type Relief struct {
	Sweeps, SweptNodes, SweepNS int64
}

// Relieve is the one barrier rule: sweep when pressure is at or over the
// reclaim budget (EXPRESSO_RECLAIM). The caller picks the quantity — nodes
// created since the last sweep at an EPVP round end, the live population
// before SPF — and it must be schedule-independent there, so that every
// worker count takes the same decision at the same barrier (the
// determinism invariant). Everything unreachable from roots() and the
// manager's pins is freed; roots is only called when a sweep runs. The
// caller must guarantee the quiescence Reclaim demands — no concurrent use
// of the manager or its workers — and orders whatever resumes after it.
func Relieve(m *bdd.Manager, pressure int64, roots func() []bdd.Node) Relief {
	if budget, on := telemetry.ReclaimBudgetFromEnv(); on && pressure >= int64(budget) {
		before := m.ReclaimStats().Pause
		freed := m.Reclaim(roots()...)
		return Relief{Sweeps: 1, SweptNodes: int64(freed), SweepNS: int64(m.ReclaimStats().Pause - before)}
	}
	return Relief{}
}

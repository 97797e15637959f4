package epvp

import (
	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/telemetry"
)

// Relieve is the pre-SPF barrier; relieve(roots, false) is the EPVP
// round-end one. DESIGN.md §5c "Dead-node reclamation" is their policy.
// Both sweep once the nodes the manager hash-consed since the engine's run
// began (or, for an engine that never ran, since the manager's birth) or
// since its last sweep, whichever is later, reach the reclaim budget
// (EXPRESSO_RECLAIM): a pure function of the canonical node set, so every
// worker count sweeps at the same barriers. An engine built by NewWarm also
// sweeps before SPF once the manager's live count is twice its warm floor,
// which the manager's first warm pre-SPF barrier sets and nothing lowers.
//
// Everything unreachable from roots() and the manager's pins is freed;
// roots is only called when a sweep runs. The caller must guarantee the
// quiescence Reclaim demands — no concurrent use of the manager or its
// workers — and orders whatever resumes after it.
func (e *Engine) Relieve(roots func() []bdd.Node) telemetry.SweepEvent {
	return e.relieve(roots, e.warm)
}

func (e *Engine) relieve(roots func() []bdd.Node, warm bool) telemetry.SweepEvent {
	budget, on := telemetry.ReclaimBudgetFromEnv()
	if !on {
		return telemetry.SweepEvent{}
	}
	m := e.Space.M
	_, created := m.UniqueStats()
	sweep := created-max(e.runStart, m.CreatedAtReclaim()) >= int64(budget)
	if live := int64(m.NumNodes()); !sweep && warm {
		if *e.floor == 0 {
			*e.floor = live
		}
		sweep = live >= 2*(*e.floor)
	}
	if !sweep {
		return telemetry.SweepEvent{}
	}
	before := m.ReclaimStats().Pause
	freed := m.Reclaim(roots()...)
	return telemetry.SweepEvent{Sweeps: 1, SweptNodes: int64(freed), SweepNS: int64(m.ReclaimStats().Pause - before)}
}

package pipeline

import (
	"sort"
	"sync"
	"time"

	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/epvp"
	"github.com/expresso-verify/expresso/internal/properties"
	"github.com/expresso-verify/expresso/internal/spf"
	"github.com/expresso-verify/expresso/internal/telemetry"
	"github.com/expresso-verify/expresso/internal/topology"
)

// LoadArtifact is the Load stage's output: the built network plus the
// content addresses the downstream stage keys chain on. Load is the only
// producer — every artifact is born of configuration text — so every one can
// be cached, persisted, diffed against another and warm-started from.
type LoadArtifact struct {
	Net *topology.Network
	// Digest is the SHA-256 of the canonical configuration text.
	Digest string
	// DeviceDigests maps each router name to the digest of its canonical
	// config section ("" keys any preamble). Warm-starts diff two of
	// these maps to find the routers a delta touched.
	DeviceDigests map[string]string
	// Elapsed is the parse+build wall clock.
	Elapsed time.Duration

	// canonical is the text Digest addresses, kept for ReportKey.
	canonical string
}

// Load runs the Load stage on configuration text: parse, build, and the
// canonical form's digests, once.
func Load(text string) (*LoadArtifact, error) {
	start := time.Now()
	devices, err := config.ParseConfigs(text)
	if err != nil {
		return nil, err
	}
	topo, err := topology.Build(devices)
	if err != nil {
		return nil, err
	}
	canonical := CanonicalConfig(text)
	return &LoadArtifact{
		Net:           topo,
		Digest:        hashHex(canonical),
		DeviceDigests: DeviceDigests(canonical),
		Elapsed:       time.Since(start),
		canonical:     canonical,
	}, nil
}

// ReportKey is ReportKey of the text the artifact was loaded from.
func (l *LoadArtifact) ReportKey(optsKey string) string {
	return reportKey(l.canonical, optsKey)
}

// SRCArtifact is the SRC stage's output: a converged EPVP fixed point
// together with the engine that owns its BDD handles. The engine is part
// of the artifact because symbolic routes are only meaningful inside the
// manager that built them — every downstream stage (analysis, SPF) and
// every warm-start chained off this artifact must run in Eng's node
// universe.
type SRCArtifact struct {
	// Key is the cache key the artifact was stored under; Digest is its
	// content address (the hash of Key), which downstream stage keys
	// chain on.
	Key    string
	Digest string
	Eng    *epvp.Engine
	Res    *epvp.Result
	// Load is the artifact the fixed point was computed from; warm-starts
	// diff its DeviceDigests against the new load's.
	Load *LoadArtifact
	// Workers is the resolved engine worker count that computed the fixed
	// point (reports surface it; results are identical for every value).
	Workers int

	// runLock serializes all symbolic computation touching Eng's BDD
	// manager: the manager's default worker is not safe for concurrent
	// use, and a cached artifact can be picked up by several requests at
	// once. Artifacts produced by warm-starting share the prior
	// artifact's manager, so they share its lock too. Reclaim sweeps run
	// under it as well, which is what makes them safe: every other
	// symbolic computation on the manager is excluded for the duration.
	runLock *managerLock
	// warm marks a fixed point warm-started in a baseline's manager: its
	// pre-SPF barrier also weighs the manager's warm-sweep floor.
	warm bool

	// The ownership state, the one place BDD handles are pinned (DESIGN.md
	// "Who owns a handle"). holders counts who keeps the artifact resident:
	// its SRC cache slot, a registered baseline, every in-flight request
	// using it. pins are its own handles, rooted from birth until the last
	// holder lets go; derived is everything built on it — routing, SPF and
	// forwarding artifacts by stage key — rooted for as long as it is filed
	// there.
	mu      sync.Mutex // guards holders and pins
	holders int
	pins    []bdd.Node
	derived Tier[derived]
}

// managerLock is a BDD manager's run lock (SRCArtifact.runLock), shared by
// every SRC artifact computed in the manager, with the one policy that is
// the manager's rather than a run's: when warm runs sweep it.
type managerLock struct {
	sync.Mutex
	// warmFloor is the live node count at the manager's first warm pre-SPF
	// barrier; 0 until then. Guarded by the lock itself.
	warmFloor int64
}

// relieveWarm is a warm run's pre-SPF barrier rule, applied after the
// budget of epvp.Relieve: sweep once the manager's live population is
// twice its floor. A warm run's own growth is a few thousand nodes, far
// below any budget, so without this the dead nodes of every delta against
// a pinned baseline accumulate in its manager. The floor is set once and
// never lowered to a post-sweep population: a sweep moves the manager's
// generation, dropping the op caches and conversions warm runs reuse, and
// a floor that tracked the swept population would sweep on nearly every
// delta. EXPRESSO_RECLAIM=off turns this sweep off too. The caller holds
// the lock.
func (l *managerLock) relieveWarm(m *bdd.Manager, roots func() []bdd.Node) {
	live := int64(m.NumNodes())
	if l.warmFloor == 0 {
		l.warmFloor = live
		return
	}
	if _, on := telemetry.ReclaimBudgetFromEnv(); on && live >= 2*l.warmFloor {
		m.Reclaim(roots()...)
	}
}

// derived is an artifact built in an SRC artifact's manager: an SPF result
// or an analysis result.
type derived interface{ handles() []bdd.Node }

// derivedCap bounds an SRC artifact's derived table, least recently used
// out. Eight property subsets times a handful of BTE communities fit; a
// client walking BTE values (they are part of the routing key) cannot grow
// a resident baseline's table past it.
const derivedCap = 16

// handles returns every BDD handle the artifact must keep valid: the
// engine's cross-run roots (compiled transfers and the edge-transfer memo)
// plus the converged RIBs' prefix-environment sets.
func (a *SRCArtifact) handles() []bdd.Node {
	roots := a.Eng.Roots()
	for _, rs := range a.Res.Best {
		for _, r := range rs {
			roots = append(roots, r.U)
		}
	}
	for _, rs := range a.Res.ExternalRIB {
		for _, r := range rs {
			roots = append(roots, r.U)
		}
	}
	return roots
}

// pin roots a freshly built artifact against dead-node reclamation — warm
// runs chained onto its manager may sweep between rounds — and makes the
// request that built it its first holder.
func (a *SRCArtifact) pin() {
	a.holders, a.pins, a.derived.cap = 1, a.handles(), derivedCap
	a.Eng.Space.M.Pin(a.pins...)
}

// retain adds a holder. It fails once the last one has let go: the handles
// are unpinned by then, and a sweep may already have taken them.
func (a *SRCArtifact) retain() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.holders == 0 {
		return false
	}
	a.holders++
	return true
}

// Release drops a holder; the last one out unpins the fixed point and
// everything derived from it, which later sweeps in that manager may then
// collect, and closes the table to further adoptions.
func (a *SRCArtifact) Release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.holders--; a.holders > 0 {
		return
	}
	a.Eng.Space.M.Unpin(a.pins...)
	a.pins = nil
	d := &a.derived
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range d.entries {
		a.Eng.Space.M.Unpin(e.val.handles()...)
	}
	d.entries, d.cap = nil, 0
}

// adopt roots a derived artifact and files it under its stage key. The
// caller holds the run lock the artifact was built under, so nothing can
// sweep the manager between the build and the pin.
func (a *SRCArtifact) adopt(key string, d derived) {
	a.Eng.Space.M.Pin(d.handles()...)
	if old, ok := a.derived.Add(key, d); ok {
		a.Eng.Space.M.Unpin(old.handles()...)
	}
}

// withLock runs f under the artifact's run lock. Every holder of a run lock
// releases it by defer: the service turns a panicking verification into a
// failed job, and the next job on that manager must not find the lock held.
func (a *SRCArtifact) withLock(f func()) {
	a.runLock.Lock()
	defer a.runLock.Unlock()
	f()
}

// BDDProfile snapshots the artifact's BDD manager under the run lock, so
// the walk sees a quiescent node population even when the artifact is
// shared with in-flight verifications. This is the introspection path
// behind GET /debug/bdd; it runs only on demand, never inside the engine.
func (a *SRCArtifact) BDDProfile() (p bdd.Profile) {
	a.withLock(func() { p = a.Eng.Space.M.Profile() })
	return p
}

// AnalysisArtifact is the output of the RoutingAnalysis and
// ForwardingAnalysis stages: the violations of the stage's property
// subset, in canonical in-stage order. Callers must not mutate the slice
// (report assembly copies).
type AnalysisArtifact struct {
	Key        string
	Violations []properties.Violation
}

// handles returns the violations' condition predicates — the only BDD
// state an analysis artifact carries.
func (a *AnalysisArtifact) handles() []bdd.Node {
	out := make([]bdd.Node, 0, len(a.Violations))
	for _, v := range a.Violations {
		out = append(out, v.Cond)
	}
	return out
}

// SPFArtifact is the SPF stage's output: symbolic FIBs and PECs, valid in
// the upstream SRC artifact's manager.
type SPFArtifact struct {
	Key    string
	Digest string
	Res    *spf.Result
}

func (a *SPFArtifact) handles() []bdd.Node { return a.Res.Nodes() }

// DirtyRouters computes the warm-start dirty set between two loads of the
// same external universe: every router whose canonical config section
// changed (or appeared, or disappeared), every neighbor — in the old AND
// new topologies — of such a router, and every neighbor of an external
// whose AS changed. The old-topology neighbors matter because change
// propagation in the new engine cannot see deltas the new topology no
// longer contains (a removed session or router): the routers that used to
// consume the removed state must be recomputed explicitly. A preamble
// change ("" section) dirties every router.
func DirtyRouters(old, new *LoadArtifact) []string {
	changed := map[string]bool{}
	for name, d := range new.DeviceDigests {
		if od, ok := old.DeviceDigests[name]; !ok || od != d {
			changed[name] = true
		}
	}
	for name := range old.DeviceDigests {
		if _, ok := new.DeviceDigests[name]; !ok {
			changed[name] = true
		}
	}
	if changed[""] {
		// Preamble text changed: no per-router attribution, dirty them all.
		out := append([]string(nil), new.Net.Internals...)
		return out
	}
	dirty := map[string]bool{}
	addWithNeighbors := func(name string) {
		dirty[name] = true
		for _, v := range old.Net.Neighbors(name) {
			dirty[v] = true
		}
		for _, v := range new.Net.Neighbors(name) {
			dirty[v] = true
		}
	}
	for name := range changed {
		addWithNeighbors(name)
	}
	// An external's AS participates in every route it originates; if it
	// changed without its neighbor routers' sections changing, those
	// routers must still recompute.
	for _, ext := range new.Net.Externals {
		if oldAS, ok := old.Net.ExternalAS[ext]; ok && oldAS != new.Net.ExternalAS[ext] {
			addWithNeighbors(ext)
		}
	}
	out := make([]string, 0, len(dirty))
	for name := range dirty {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// UnchangedRouters returns the routers whose canonical config sections are
// byte-identical between two loads — the set whose compiled policy
// transfers a warm engine may adopt from the prior engine instead of
// recompiling (epvp.NewWarm). A preamble change disqualifies everything:
// preamble text has no per-router attribution, so no section can be
// trusted to mean the same thing.
func UnchangedRouters(old, new *LoadArtifact) map[string]bool {
	if old.DeviceDigests[""] != new.DeviceDigests[""] {
		return nil
	}
	unchanged := map[string]bool{}
	for name, d := range new.DeviceDigests {
		if name == "" {
			continue
		}
		if od, ok := old.DeviceDigests[name]; ok && od == d {
			unchanged[name] = true
		}
	}
	return unchanged
}

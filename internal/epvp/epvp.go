// Package epvp implements the Expresso Path Vector Protocol (§4 of the
// paper): a symbolic variant of SPVP that computes, in one fixed point, the
// best routes of every router for every prefix under every external-route
// environment.
//
// EPVP operates on symbolic routes (internal/symbolic): external neighbors
// are initialized with wildcard routes carrying their advertiser variable,
// route policies are the compiled guarded transfers of Algorithm 2, and the
// merge drops preference-dominated (prefix, environment) pairs.
package epvp

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/expresso-verify/expresso/internal/automaton"
	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/community"
	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/symbolic"
	"github.com/expresso-verify/expresso/internal/telemetry"
	"github.com/expresso-verify/expresso/internal/topology"
)

// Mode selects which protocol features are modeled symbolically, matching
// the feature levels of Figure 6c ("t", "t+c", "t+c+a") and the Expresso-
// variant of §7.2 (SymbolicASPaths=false).
type Mode struct {
	// TrafficPolicies applies route policies. When false, every policy is
	// treated as permit-all (the "none" level).
	TrafficPolicies bool
	// SymbolicCommunities models communities with atom predicates.
	SymbolicCommunities bool
	// SymbolicASPaths models AS paths as automata; false is Expresso-.
	SymbolicASPaths bool
}

// FullMode enables every feature (the paper's default Expresso).
func FullMode() Mode {
	return Mode{TrafficPolicies: true, SymbolicCommunities: true, SymbolicASPaths: true}
}

// IsZero reports whether the Mode is the zero value, which callers treat as
// "use FullMode". Keep this next to the field list: if a field is added,
// this comparison (and the zero-means-default contract) must be revisited.
func (m Mode) IsZero() bool { return m == Mode{} }

// Key renders the mode for cache keys, one field at a time, so renaming or
// reordering fields cannot silently change every key the way a
// fmt.Sprintf("%+v") rendering would. Keep this next to the field list: a
// new field must be added here (the reflection test in mode_test.go fails
// otherwise).
func (m Mode) Key() string {
	return fmt.Sprintf("t:%t,c:%t,a:%t", m.TrafficPolicies, m.SymbolicCommunities, m.SymbolicASPaths)
}

// Engine runs EPVP over a network.
type Engine struct {
	Net   *topology.Network
	Space *symbolic.Space
	Comm  *community.Space
	Mode  Mode
	// Workers is the number of goroutines recomputing routers within one
	// synchronous round. 1 keeps the sequential reference path; 0 or less
	// is resolved at Run time by WorkerCount (EXPRESSO_WORKERS if set,
	// else runtime.GOMAXPROCS(0)). Results are identical for every value
	// (see RunContext).
	Workers int
	// Trace, when non-nil, receives one telemetry.RoundEvent per
	// fixed-point round. Set it before Run; the pipeline attaches the
	// request's tracer here for the duration of the SRC stage. A nil
	// tracer costs one pointer check per round.
	Trace *telemetry.Tracer

	ctx       symbolic.CompileContext
	permitAll *symbolic.Transfer
	transfers map[transferKey]*symbolic.Transfer

	// The sweep barriers' state (barrier.go): the hash-consed count when
	// the run began, the manager's warm floor (shared with the spaces by
	// NewWarm), and whether NewWarm built this engine.
	runStart int64
	floor    *int64
	warm     bool
}

type transferKey struct {
	device string
	policy string
}

// Result is the converged symbolic routing state.
type Result struct {
	// Best maps internal routers to their symbolic RIBs.
	Best map[string][]*symbolic.Route
	// ExternalRIB maps external neighbors to the symbolic routes the
	// network exports to them.
	ExternalRIB map[string][]*symbolic.Route
	// Converged is false if the iteration cap was reached.
	Converged bool
	// Iterations counts the synchronous rounds executed.
	Iterations int
}

// New builds an engine: it allocates the symbolic spaces, computes
// community atoms, and compiles every referenced policy.
func New(net *topology.Network, mode Mode) *Engine {
	e, _ := NewContext(context.Background(), net, mode)
	return e
}

// NewContext is New with cancellation. Policy compilation is most of
// engine construction, so it is checked against ctx between devices; a
// cancelled ctx aborts the build mid-compile and returns ctx's error.
func NewContext(ctx context.Context, net *topology.Network, mode Mode) (*Engine, error) {
	return build(ctx, net, mode, nil, nil)
}

// build is NewContext for a nil prior and NewWarm's construction
// otherwise: it computes net's community atoms and either allocates fresh
// spaces or, checking the atom universes agree, shares prior's; then it
// fills the compile context, the permit-all transfer, and the per-(device,
// policy) transfer table, with transfer reuse: for a device in reuse (its
// configuration section is unchanged from prior's), the prior engine's
// compiled transfers are adopted instead of recompiled. Transfers are pure
// data over BDD handles, so adoption is sound exactly when both engines
// share one node manager (the NewWarm invariant) and the device's policies
// are textually unchanged, and it keeps a local delta's compile
// proportional to the routers it touched. ctx is checked once per device,
// making cancellation latency one device's compile rather than the whole
// table's.
func build(ctx context.Context, net *topology.Network, mode Mode, prior *Engine, reuse map[string]bool) (*Engine, error) {
	devices := make([]*config.Device, 0, len(net.Internals))
	for _, name := range net.Internals {
		devices = append(devices, net.Devices[name])
	}
	atoms := community.ComputeAtoms(devices)
	e := &Engine{Net: net, Mode: mode, transfers: map[transferKey]*symbolic.Transfer{}}
	if prior == nil {
		e.Space, e.Comm, e.floor = symbolic.NewSpace(len(net.Externals)), community.NewSpace(atoms), new(int64)
	} else {
		if atoms.Signature() != prior.Comm.Atoms.Signature() {
			return nil, fmt.Errorf("epvp: warm-start community atom universe changed")
		}
		e.Space, e.Comm, e.floor, e.warm = prior.Space, prior.Comm, prior.floor, true
	}
	e.ctx = symbolic.CompileContext{
		Space:               e.Space,
		Comm:                e.Comm,
		SymbolicCommunities: mode.SymbolicCommunities,
		SymbolicASPaths:     mode.SymbolicASPaths,
	}
	e.permitAll = symbolic.CompilePolicy(e.ctx, nil)
	for _, name := range net.Internals {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d := net.Devices[name]
		adopt := prior != nil && reuse[name]
		for _, p := range d.Peers {
			for _, polName := range []string{p.Import, p.Export} {
				if polName == "" {
					continue
				}
				k := transferKey{name, polName}
				if _, done := e.transfers[k]; done {
					continue
				}
				if adopt {
					if t, ok := prior.transfers[k]; ok {
						e.transfers[k] = t
						continue
					}
				}
				e.transfers[k] = symbolic.CompilePolicy(e.ctx, d.Policies[polName])
			}
		}
	}
	return e, nil
}

// NewWarm builds an engine for net that shares the symbolic and community
// spaces of a prior engine, so the prior converged RIBs remain valid seeds
// for an incremental (warm-start) run: BDD handles are only meaningful
// within the manager that built them, so warm-starting requires the new
// engine to operate in the prior engine's node universe.
//
// Sharing is sound only when the universes agree, so NewWarm returns an
// error (and callers fall back to a cold New) unless:
//
//   - the modes are identical (feature flags change the transfer encodings),
//   - the external-neighbor lists are identical (advertiser variables are
//     positional), and
//   - the community atom universes have equal signatures (atom i must mean
//     the same community set in both configurations).
//
// The returned engine takes the prior engine's spaces as they are, so its
// runs fan out on the same kept BDD workers (bdd.Manager.Workers), default
// worker first, and the op caches every earlier run on the managers filled
// serve this one too; it shares the manager's warm floor with them
// (Relieve). Each worker is single-goroutine and the set is the manager's,
// so every computation on engines sharing the managers must be serialized
// — the pipeline's one run lock per manager does that. Transfers for
// devices in unchanged (callers pass the routers whose configuration
// sections are byte-identical to prior's; nil means none) are adopted from
// the prior engine; the rest are recompiled from the new devices. Like
// NewContext, compilation checks ctx per device and aborts on cancel.
func NewWarm(ctx context.Context, net *topology.Network, mode Mode, prior *Engine, unchanged map[string]bool) (*Engine, error) {
	if mode != prior.Mode {
		return nil, fmt.Errorf("epvp: warm-start mode mismatch (%s vs %s)", mode.Key(), prior.Mode.Key())
	}
	if len(net.Externals) != len(prior.Net.Externals) {
		return nil, fmt.Errorf("epvp: warm-start external count changed (%d vs %d)",
			len(net.Externals), len(prior.Net.Externals))
	}
	for i, name := range net.Externals {
		if prior.Net.Externals[i] != name {
			return nil, fmt.Errorf("epvp: warm-start external set changed at %q", name)
		}
	}
	return build(ctx, net, mode, prior, unchanged)
}

// Ctx exposes the compile context (spaces and feature flags).
func (e *Engine) Ctx() symbolic.CompileContext { return e.ctx }

// Roots returns every prefix-space BDD handle the engine keeps alive
// across runs: the permit-all and compiled transfers, which a warm engine
// adopts (NewWarm). Callers running bdd.Manager.Reclaim at stage
// boundaries — the pipeline does, before SPF — must pass these as roots,
// along with any result routes they retain themselves (the pipeline pins
// its held artifacts instead). The engine must be quiescent (no run in
// progress). A run's memo is not among them: it lives for one run, whose
// round-end sweeps root it through runRoots.
func (e *Engine) Roots() []bdd.Node {
	out := make([]bdd.Node, 0, 256)
	out = append(out, e.permitAll.Nodes()...)
	for _, t := range e.transfers {
		out = append(out, t.Nodes()...)
	}
	return out
}

// workers returns the engine's fan-out over its managers' first n kept
// workers (symbolic.Space.Workers, community.Space.Workers): the engine
// itself at index 0 and, at each other index, a shallow copy whose spaces
// are the views over that index's worker. The copies share the node
// universes — handles are interchangeable — and the compiled transfers
// (read-only after New); the run hands all of them its one memo.
// Each must be driven by one goroutine at a time.
func (e *Engine) workers(n int) Pool[*Engine] {
	spaces, comms := e.Space.Workers(n), e.Comm.Workers(n)
	pool := Pool[*Engine]{e}
	for i := 1; i < len(spaces); i++ {
		c := *e
		c.ctx.Space, c.ctx.Comm = spaces[i], comms[i]
		c.Space, c.Comm = spaces[i], comms[i]
		pool = append(pool, &c)
	}
	return pool
}

// WorkerCount resolves Workers: 0 means the EXPRESSO_WORKERS environment
// variable if set (the CI race knob — it forces the parallel paths even in
// tests that build the engine directly), else one worker per available CPU.
// The SPF stage uses the same setting for its own fan-out.
func (e *Engine) WorkerCount() int {
	if e.Workers > 0 {
		return e.Workers
	}
	if n := telemetry.WorkersFromEnv(); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

func (e *Engine) transfer(device, policy string) *symbolic.Transfer {
	if policy == "" || !e.Mode.TrafficPolicies {
		return e.permitAll
	}
	return e.transfers[transferKey{device, policy}]
}

// originated builds the locally injected symbolic route of a device, per
// the paper's initialization: U is the union of its originated prefixes
// with a True environment.
func (e *Engine) originated(d *config.Device) *symbolic.Route {
	var prefixes []route.Prefix
	prefixes = append(prefixes, d.Networks...)
	if d.RedistributeConnected {
		for _, itf := range d.Interfaces {
			prefixes = append(prefixes, itf.Prefix)
		}
	}
	if d.RedistributeStatic {
		for _, s := range d.Statics {
			prefixes = append(prefixes, s.Prefix)
		}
	}
	if len(prefixes) == 0 {
		return nil
	}
	r := &symbolic.Route{
		U:          e.Space.PrefixesBDD(prefixes),
		Comm:       e.Comm.EmptyList(),
		LocalPref:  route.DefaultLocalPref,
		Originator: d.Name,
		Path:       []string{d.Name},
	}
	if e.Mode.SymbolicASPaths {
		r.ASPath = automaton.EmptyWord()
	}
	r.SyncASLen()
	return r
}

// externalInit builds the wildcard symbolic route of external neighbor i:
// U = Valid ∧ n_i, community list 2^CA, and AS path "<as>.*" — an arbitrary
// path whose first hop is the neighbor's AS, per BGP's enforce-first-as
// (and matching the "100.*" routes of the paper's Figure 4 walkthrough).
func (e *Engine) externalInit(name string) *symbolic.Route {
	i := e.Net.ExternalIndex[name]
	r := &symbolic.Route{
		U:          e.Space.M.And(e.Space.Valid(), e.Space.M.Var(e.Space.NbrVar(i))),
		Comm:       e.Comm.All(),
		LocalPref:  route.DefaultLocalPref,
		Originator: name,
		Path:       []string{name},
		ASLen:      1, // representative length in concrete mode
	}
	if e.Mode.SymbolicASPaths {
		first := automaton.FromWord([]automaton.Symbol{automaton.Symbol(e.Net.ExternalAS[name])})
		r.ASPath = first.Concat(automaton.AnyString())
		r.SyncASLen()
	}
	return r
}

// defaultOriginated is the default route injected on advertise-default
// sessions.
func (e *Engine) defaultOriginated(from string) *symbolic.Route {
	r := &symbolic.Route{
		U:          e.Space.PrefixBDD(route.Prefix{}),
		Comm:       e.Comm.EmptyList(),
		LocalPref:  route.DefaultLocalPref,
		Originator: from,
		Path:       []string{from},
	}
	if e.Mode.SymbolicASPaths {
		r.ASPath = automaton.EmptyWord()
	}
	r.SyncASLen()
	return r
}

// export computes the symbolic routes u advertises to v for route r,
// applying session semantics and the export policy (may split r).
func (e *Engine) export(u, v string, r *symbolic.Route) []*symbolic.Route {
	du := e.Net.Devices[u]
	su := e.Net.Session(u, v)
	if du == nil || su == nil {
		return nil
	}
	if su.AdvertiseDefault {
		return nil // only the default route, injected separately
	}
	if r.OnPath(v) {
		return nil
	}
	from := r.LearnedFrom()
	toIBGP := e.Net.IsIBGP(u, v)
	if from != "" && e.Net.IsInternal(from) && e.Net.IsIBGP(u, from) && toIBGP {
		sessFrom := e.Net.Session(u, from)
		fromClient := sessFrom != nil && sessFrom.ReflectClient
		toClient := su.ReflectClient
		if !fromClient && !toClient {
			return nil
		}
	}
	outs := e.transfer(u, su.Export).Apply(e.ctx, r)
	for _, o := range outs {
		if !su.AdvertiseCommunity {
			o.Comm = e.Comm.EmptyList()
		}
		if !toIBGP {
			symbolic.Prepend(o, du.AS)
			o.LocalPref = route.DefaultLocalPref
		}
	}
	return outs
}

// importAt applies v's import processing for symbolic routes received from
// u (may split them further).
func (e *Engine) importAt(v, u string, rs []*symbolic.Route) []*symbolic.Route {
	dv := e.Net.Devices[v]
	sv := e.Net.Session(v, u)
	if dv == nil || sv == nil {
		return nil
	}
	fromEBGP := !e.Net.IsIBGP(v, u)
	var out []*symbolic.Route
	for _, r := range rs {
		if r.OnPath(v) {
			continue
		}
		if fromEBGP {
			r = r.Clone()
			if !symbolic.RemoveASLoops(r, dv.AS) {
				continue
			}
		}
		for _, ir := range e.transfer(v, sv.Import).Apply(e.ctx, r) {
			ir.FromEBGP = fromEBGP
			ir.NextHop = u
			ir.Originator = r.Originator
			ir.Path = append(append([]string(nil), r.Path...), v)
			out = append(out, ir)
		}
	}
	return out
}

// ImportCandidates returns the symbolic routes router v would accept from
// external neighbor ext (the wildcard advertisement filtered through v's
// import processing), regardless of best-route selection. Used by the
// EgressPreference analysis to compute route availability.
func (e *Engine) ImportCandidates(v, ext string) []*symbolic.Route {
	if !e.Net.IsExternal(ext) {
		return nil
	}
	return e.importAt(v, ext, []*symbolic.Route{e.externalInit(ext)})
}

// edgeTransfer computes (and memoizes across the run's fixed-point rounds)
// the routes v accepts when u advertises r: importAt(v, u, export(u, v, r)).
// Transfers are pure functions of (u, v, r), and most RIB entries persist
// between rounds, so the memo removes the bulk of repeated work. Memoized
// routes are sealed and shared across round workers; callers must treat
// them as immutable (Merge clones before mutating).
func (e *Engine) edgeTransfer(memo *symbolic.RunMemo, u, v string, r *symbolic.Route) []*symbolic.Route {
	return memo.Edge(u, v, r, func() []*symbolic.Route { return e.importAt(v, u, e.export(u, v, r)) })
}

// Run executes EPVP to its fixed point.
func (e *Engine) Run() *Result {
	res, _ := e.RunContext(context.Background())
	return res
}

// RunContext executes EPVP to its fixed point, checking ctx between router
// recomputations so a cancelled or expired context stops the iteration
// promptly (well before convergence on large networks). On cancellation it
// returns a nil Result and ctx.Err().
//
// With Workers > 1 the routers of one synchronous round are recomputed on
// a pool of engine views over the managers' kept workers. This changes
// nothing observable: a round only reads the previous round's RIBs, so
// per-router recomputation is independent; hash-consing makes BDD handles
// canonical within a run regardless of which worker builds a node; and the
// per-round reduction assembles results in router order. Handle
// *numbering* does vary with scheduling, so the final RIBs are ordered by
// symbolic.SortCanonical (structural fingerprints, not handles), which
// makes the Result identical for every worker count.
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	return e.run(ctx, nil, nil)
}

// RunWarmContext executes EPVP to its fixed point starting from a prior
// converged result instead of the cold initial state: every router present
// in prior.Best is seeded with its converged RIB, and only the routers in
// dirty — plus their neighbors, whose recomputation consumes the dirty
// routers' exports — are recomputed in the first round. Change tracking
// then propagates exactly as in a cold run, so routers beyond the dirty
// closure recompute only if the delta's effects actually reach them.
//
// dirty must contain every router whose own configuration changed AND
// every router adjacent to a change the new topology cannot see (a removed
// router, a removed session, or an external neighbor whose AS changed) —
// callers diffing two configurations compute this from per-router config
// digests over both the old and new topologies. Routers in the new network
// that are absent from prior.Best (added routers) are seeded cold; names
// in prior.Best that left the network are dropped.
//
// The engine must have been built by NewWarm against the engine that
// produced prior (the seeds' BDD handles are only meaningful in a shared
// node universe). Warm and cold runs converge to the same fixed point on a
// deterministic decision process; the warm-start determinism tests pin
// byte-identical reports against a cold run of the same configuration.
func (e *Engine) RunWarmContext(ctx context.Context, prior *Result, dirty []string) (*Result, error) {
	return e.run(ctx, prior, dirty)
}

// run is the shared fixed-point driver: seed == nil is a cold start over
// every router; a non-nil seed warm-starts from its RIBs with round 0
// restricted to the dirty closure.
func (e *Engine) run(ctx context.Context, seed *Result, dirty []string) (*Result, error) {
	best := map[string][]*symbolic.Route{}
	// Edge transfers and Merge's BDD steps repeat across rounds (most RIB
	// entries persist, and a router recomputed because one neighbor moved
	// re-subtracts what the others still send), so one memo of both serves
	// every worker for the whole run. It is listed in runRoots, which keeps
	// its entries valid across the round-end sweeps, and dropped when the
	// run returns.
	memo := new(symbolic.RunMemo)
	var initialWork map[string]bool
	if seed != nil {
		initialWork = map[string]bool{}
		for _, d := range dirty {
			if e.Net.IsInternal(d) {
				initialWork[d] = true
			}
			for _, v := range e.Net.Neighbors(d) {
				if e.Net.IsInternal(v) {
					initialWork[v] = true
				}
			}
		}
	}
	for _, name := range e.Net.Internals {
		if seed != nil {
			if rs, ok := seed.Best[name]; ok {
				// Copy the list header: the final SortCanonical pass must
				// not reorder the prior result's slices in place.
				best[name] = append([]*symbolic.Route(nil), rs...)
				continue
			}
			// A router with no prior RIB is new; its cold init changes its
			// RIB, so it must be part of round 0 regardless of the dirty
			// set the caller computed.
			initialWork[name] = true
		}
		var init []*symbolic.Route
		if r := e.originated(e.Net.Devices[name]); r != nil {
			init = append(init, r)
		}
		best[name] = memo.Merge(e.Space, init)
	}
	extInit := map[string]*symbolic.Route{}
	for _, name := range e.Net.Externals {
		r := e.externalInit(name)
		r.Seal() // shared read-only with round workers
		extInit[name] = r
	}

	res := &Result{
		Best:        map[string][]*symbolic.Route{},
		ExternalRIB: map[string][]*symbolic.Route{},
	}
	// The barriers' growth counts from here (barrier.go).
	_, e.runStart = e.Space.M.UniqueStats()
	pool := e.workers(e.WorkerCount())
	// Synchronous rounds with change tracking: a router recomputes only
	// when some neighbor's RIB changed in the previous round, which lets
	// late rounds touch only the frontier still in motion.
	maxIter := 4*len(e.Net.Internals) + 16
	changedLast := map[string]bool{}
	for _, v := range e.Net.Internals {
		changedLast[v] = true
	}
	ribKeys := map[string]string{}
	for v, rs := range best {
		ribKeys[v] = symbolic.RIBKey(rs)
	}
	for iter := 0; iter < maxIter; iter++ {
		res.Iterations = iter + 1
		// Telemetry snapshot: counter reads happen only at round
		// boundaries (workers quiescent), and only when tracing is on.
		var roundStart time.Time
		var nodes0, uhits0, ihits0, imiss0, mhits0, mmiss0 int64
		frontier := len(changedLast)
		if e.Trace.Enabled() {
			roundStart = time.Now()
			uhits0, nodes0 = e.Space.M.UniqueStats()
			ihits0, imiss0 = e.memoStats(pool)
			mhits0, mmiss0 = memo.Stats()
		}
		next := map[string][]*symbolic.Route{}
		changedNow := map[string]bool{}
		// Work list: the routers whose inputs changed last round.
		var work []string
		for _, v := range e.Net.Internals {
			needs := iter == 0 && (initialWork == nil || initialWork[v])
			if !needs && iter > 0 {
				for _, u := range e.Net.Neighbors(v) {
					if changedLast[u] {
						needs = true
						break
					}
				}
			}
			if needs {
				work = append(work, v)
			} else {
				next[v] = best[v]
			}
		}
		outs := make([][]*symbolic.Route, len(work))
		err := pool.Each(ctx, len(work), func(f *Engine, i int) {
			// recompute fails only on cancellation, which Each reports.
			if rs, err := f.recompute(ctx, work[i], best, extInit, memo); err == nil {
				outs[i] = rs
			}
		})
		if err != nil {
			return nil, err
		}
		// Deterministic reduction: results land keyed by router name, in
		// this round's work order, no matter which worker computed them.
		for i, v := range work {
			next[v] = outs[i]
			if k := symbolic.RIBKey(next[v]); k != ribKeys[v] {
				ribKeys[v] = k
				changedNow[v] = true
			}
		}
		converged := len(changedNow) == 0
		best = next
		changedLast = changedNow
		// Round end is a quiescent barrier (Each has returned), and which
		// round a node population belongs to does not depend on scheduling,
		// so this watermark sample is schedule-independent. Two atomics —
		// cheap enough to run whether or not tracing is on.
		e.Space.M.NoteWatermark()
		// The round-end sweep barrier (barrier.go): the workers are quiescent
		// (Each has returned) and the next round's goroutines start after it.
		var relief telemetry.SweepEvent
		if !converged {
			relief = e.relieve(func() []bdd.Node { return e.runRoots(best, extInit, seed, memo) }, false)
		}
		if e.Trace.Enabled() {
			uhits1, nodes1 := e.Space.M.UniqueStats()
			ihits1, imiss1 := e.memoStats(pool)
			mhits1, mmiss1 := memo.Stats()
			peak, _, _ := e.Space.M.Watermark()
			e.Trace.Round(telemetry.RoundEvent{
				Round:          iter + 1,
				Recomputed:     len(work),
				Frontier:       frontier,
				RIBChanges:     len(changedNow),
				BDDNodes:       int64(e.Space.M.NumNodes()),
				BDDGrowth:      nodes1 - nodes0,
				ITEHits:        ihits1 - ihits0,
				ITEMisses:      imiss1 - imiss0,
				UniqueHits:     uhits1 - uhits0,
				UniqueMisses:   nodes1 - nodes0,
				MergeHits:      mhits1 - mhits0,
				MergeMisses:    mmiss1 - mmiss0,
				Reclaims:       relief.Sweeps,
				ReclaimedNodes: relief.SweptNodes,
				ReclaimNS:      relief.SweepNS,
				BDDPeak:        peak,
				Duration:       time.Since(roundStart).Nanoseconds(),
			})
		}
		if converged {
			res.Converged = true
			break
		}
	}
	// Canonical, handle-free ordering so reports are byte-identical across
	// runs and worker counts (Merge's internal order is only stable within
	// one run).
	for _, rs := range best {
		symbolic.SortCanonical(e.Comm, rs)
	}
	res.Best = best

	// Routes exported to each external neighbor (their received RIB),
	// computed on the pool and assembled in Externals order.
	recvs := make([][]*symbolic.Route, len(e.Net.Externals))
	if err := pool.Each(ctx, len(recvs), func(f *Engine, i int) {
		recvs[i] = f.received(e.Net.Externals[i], best)
	}); err != nil {
		return nil, err
	}
	for i, ext := range e.Net.Externals {
		res.ExternalRIB[ext] = recvs[i]
	}
	return res, nil
}

// received is the RIB external neighbor ext receives from the converged
// RIBs best, in canonical order. It only reads best, so workers may run it
// concurrently for different neighbors.
func (e *Engine) received(ext string, best map[string][]*symbolic.Route) []*symbolic.Route {
	var recv []*symbolic.Route
	for _, u := range e.Net.Neighbors(ext) {
		for _, r := range best[u] {
			for _, er := range e.export(u, ext, r) {
				er.Path = append(append([]string(nil), r.Path...), ext)
				recv = append(recv, er)
			}
		}
		su := e.Net.Session(u, ext)
		if su != nil && su.AdvertiseDefault {
			def := e.defaultOriginated(u)
			def.Path = []string{u, ext}
			recv = append(recv, def)
		}
	}
	// Externals do not run a decision process; they receive everything.
	// Drop empties and sort for determinism (stable: routes with equal
	// attributes keep their deterministic collection order).
	kept := recv[:0]
	for _, r := range recv {
		if r.U != bdd.False {
			kept = append(kept, r)
		}
	}
	symbolic.SortCanonical(e.Comm, kept)
	return kept
}

// runRoots gathers the BDD roots live at a round boundary: the round's
// RIBs, the external wildcard seeds, the warm seed (a direct
// RunWarmContext caller may retain the prior result without pinning it),
// the run's memo (operands and results, so its entries stay valid across
// the sweep), and the engine's cross-run roots (the transfers). The
// space's own cached predicates are pinned by NewSpace, and pipeline
// artifacts pin their routes, so neither needs listing here.
// Nothing here is pinned: the run's own roots live only as long as the run.
func (e *Engine) runRoots(best map[string][]*symbolic.Route, extInit map[string]*symbolic.Route, seed *Result, memo *symbolic.RunMemo) []bdd.Node {
	roots := memo.Roots(e.Roots())
	for _, rs := range best {
		for _, r := range rs {
			roots = append(roots, r.U)
		}
	}
	for _, r := range extInit {
		roots = append(roots, r.U)
	}
	return seed.Roots(roots)
}

// Roots appends the handles of every route r holds, its Best and external
// RIBs', to out; a nil r holds none.
func (r *Result) Roots(out []bdd.Node) []bdd.Node {
	if r == nil {
		return out
	}
	for _, rib := range []map[string][]*symbolic.Route{r.Best, r.ExternalRIB} {
		for _, rs := range rib {
			for _, rt := range rs {
				out = append(out, rt.U)
			}
		}
	}
	return out
}

// memoStats sums the cumulative ITE-memo counters of the run's workers,
// each once. Called only at round boundaries, when the worker goroutines
// are quiescent (Pool.Each has returned), so the single-goroutine Worker
// contract holds.
func (e *Engine) memoStats(pool Pool[*Engine]) (hits, misses int64) {
	for _, f := range pool {
		h, m := f.Space.W.MemoStats()
		hits += h
		misses += m
	}
	return hits, misses
}

// recompute rebuilds one router's RIB from the previous round's state: its
// candidates merged by preference, both through the run's memo. Reads only
// best/extInit (previous round, immutable during the round), the engine's
// shared read-only state and the striped memo, so workers may run it
// concurrently for different routers.
func (e *Engine) recompute(ctx context.Context, v string, best map[string][]*symbolic.Route, extInit map[string]*symbolic.Route, memo *symbolic.RunMemo) ([]*symbolic.Route, error) {
	cands, err := e.candidates(ctx, v, best, extInit, memo)
	if err != nil {
		return nil, err
	}
	return memo.Merge(e.ctx.Space, cands), nil
}

// candidates collects what router v chooses among in one round: its own
// originated route plus, per neighbor, the image of that neighbor's merged
// RIB (or of its one wildcard or default route) under the edge's transfers
// — the shape symbolic.RunMemo.Merge's tier invariant rests on.
func (e *Engine) candidates(ctx context.Context, v string, best map[string][]*symbolic.Route, extInit map[string]*symbolic.Route, memo *symbolic.RunMemo) ([]*symbolic.Route, error) {
	var candidates []*symbolic.Route
	if r := e.originated(e.Net.Devices[v]); r != nil {
		candidates = append(candidates, r)
	}
	for _, u := range e.Net.Neighbors(v) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if e.Net.IsInternal(u) {
			for _, r := range best[u] {
				candidates = append(candidates, e.edgeTransfer(memo, u, v, r)...)
			}
			su := e.Net.Session(u, v)
			if su != nil && su.AdvertiseDefault {
				candidates = append(candidates,
					e.importAt(v, u, []*symbolic.Route{e.defaultOriginated(u)})...)
			}
		} else {
			candidates = append(candidates,
				e.importAt(v, u, []*symbolic.Route{extInit[u]})...)
		}
	}
	return candidates, nil
}

package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/epvp"
	"github.com/expresso-verify/expresso/internal/properties"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/spf"
	"github.com/expresso-verify/expresso/internal/store"
	"github.com/expresso-verify/expresso/internal/telemetry"
)

// Stage statuses recorded in StageInfo provenance entries.
const (
	StatusHit  = "hit"  // artifact served from the stage cache
	StatusMiss = "miss" // artifact computed cold
	StatusWarm = "warm" // SRC only: computed, but seeded from the named baseline
	StatusDisk = "disk" // artifact deserialized from the persistent store tier
)

// StageInfo is one stage's provenance: what ran, from where, how long.
// The CLI's -explain-cache renders these, and expresso.RunInfo carries
// them back to API callers.
type StageInfo struct {
	Stage    string        `json:"stage"`
	Status   string        `json:"status"`
	Key      string        `json:"key"`
	Duration time.Duration `json:"duration_ns"`
	// Seed is the digest of the prior SRC artifact a warm start chained
	// on ("" for every other provenance) — a first-class column in the
	// CLI's -explain-cache table and the trace spans.
	Seed string `json:"seed,omitempty"`
	// Note carries stage-specific detail: the anchoring baseline's name
	// and the warm-start dirty count.
	Note string `json:"note,omitempty"`
}

// Request describes one verification to a Runner. Mode must be resolved
// (the zero-Mode-means-FullMode default is the public API's business);
// Properties may be in any order and are split into the canonical
// per-stage subsets.
type Request struct {
	Load       *LoadArtifact
	Mode       epvp.Mode
	Properties []properties.Kind
	BTE        route.Community
	Workers    int
	// Baseline names the registered baseline this request is a delta
	// against (""= none). When set and the Runner has a registry, the SRC
	// stage anchors on the baseline's pinned converged state: an exact
	// config match serves it directly, anything else warm-starts from it.
	// Like the stage cache, the anchor never changes what a report says.
	Baseline string
	// Trace, when non-nil, receives fine-grained engine events for the
	// stages that actually compute (EPVP rounds, SPF per-router work).
	// Stage spans themselves are recorded by the caller from the
	// Outcome's StageInfos. Like Workers, Trace never changes a report's
	// content and is absent from every cache key.
	Trace *telemetry.Tracer
}

// Outcome is a completed run: the artifacts of every stage that executed
// (Routing is always present; SPF and Forwarding only when a forwarding
// property was requested) plus per-stage provenance in pipeline order.
type Outcome struct {
	SRC        *SRCArtifact
	Routing    *AnalysisArtifact
	SPF        *SPFArtifact
	Forwarding *AnalysisArtifact
	Stages     []StageInfo
}

// warmNodeBudget bounds the live BDD node count of a baseline's manager
// the Runner is willing to warm-start a delta into. Every delta against a
// baseline computes in the baseline's manager; dead-node reclamation keeps
// the live population bounded, but a manager whose pinned artifacts alone
// exceed the budget is past the point where a cold start with a fresh
// manager is cheaper than dragging the old universe along.
const warmNodeBudget = 4 << 20

// Runner executes the staged pipeline.
type Runner struct {
	// Cache is the memory tier of SRC artifacts (required). The stages built
	// on one (routing, SPF, forwarding) are kept by that artifact itself, so
	// what memory serves for them was built on the very fixed point — in the
	// very BDD manager — the request resolved. A zero SRCCache keeps nothing:
	// every stage runs cold — byte-identical results, no reuse — which is
	// what the plain expresso.Verify path wants (its determinism tests
	// compare repeated runs, including iteration counts).
	Cache *SRCCache
	// Store, when non-nil, is the persistent second tier under the stage
	// cache: SRC, SPF, and analysis artifacts are written through to it
	// and, on an in-memory miss, read back and deserialized — so a cold
	// process (or a second replica sharing the store directory)
	// warm-starts from a previously converged state. Store traffic is
	// keyed by DiskKey of the stage key; failures degrade to recompute.
	Store store.Tier
	// Baselines, when non-nil, resolves Request.Baseline names to pinned
	// converged states — the explicit anchor of the SRC stage's
	// baseline-exact and warm rungs.
	Baselines *BaselineRegistry
}

// stageSpec is everything that differs between stages; where an artifact
// comes from, and when it is rooted, filed and persisted, is resolve and
// the same for all of them.
type stageSpec[A comparable] struct {
	stage, key string
	// lock is the run lock of the BDD manager the artifact is decoded,
	// computed and encoded in.
	lock sync.Locker
	// lookup is the memory rung: the artifact, and a provenance note saying
	// where it was found when that is not the obvious place.
	lookup func() (A, string, bool)
	// decode rebuilds the artifact from a store blob; an error — corrupt
	// blob, schema mismatch — degrades to the rungs below. compute builds
	// it from the upstream artifacts.
	decode  func(data []byte) (A, error)
	compute func() (A, error)
	// keep roots a built artifact against reclamation and files it where
	// lookup finds it.
	keep   func(a A)
	encode func(a A) []byte

	// SRC's extra rung; nil for every other stage. anchor picks the named
	// baseline's fixed point a warm start chains on — held for the caller —
	// with its provenance note prefix, or nil; warm computes from it,
	// returning the dirty-router count, or the zero A when the anchor's
	// symbolic universe does not fit the request.
	anchor func() (*SRCArtifact, string)
	warm   func(anchor *SRCArtifact) (A, int, error)
}

// resolve is the one resolution ladder: memory → disk → warm from the named
// baseline → cold. Whichever rung builds the artifact does so under the run
// lock of the manager it builds in and keeps it before that lock is released,
// so the artifact is rooted before anything else (another job's sweep on a
// shared baseline manager, this request's own pre-SPF sweep) can reclaim in
// that manager; one that did not come from the store is encoded under the
// same lock, before it is kept — an encoding that panics leaves nothing filed
// to root a dead handle in the manager's next sweep — and written through
// once the lock is released. A derived stage looks memory up once more under that
// lock: two requests on one SRC artifact that miss the same key queue on its
// run lock, and the second is served what the first built instead of
// building — and filing over — it again. count, when non-nil, tallies
// whether memory served the request. Duration is left to the caller.
func resolve[A comparable](ctx context.Context, st store.Tier, s *stageSpec[A], count *tally) (A, StageInfo, error) {
	info := StageInfo{Stage: s.stage, Status: StatusMiss, Key: s.key}
	if count != nil {
		defer func() { count.count(info.Status == StatusHit) }()
	}
	var none A
	art, blob := none, []byte(nil) // blob: art's encoding, for the store
	lookup := func() bool {
		a, note, ok := s.lookup()
		if ok {
			art, info.Status, info.Note = a, StatusHit, note
		}
		return ok
	}
	if lookup() {
		return art, info, nil
	}

	build := func(lock sync.Locker, f func() (A, error), persist bool) error {
		lock.Lock()
		defer lock.Unlock()
		// SRC requests never wait for one another's key: each builds in a
		// manager, or under an anchor, of its own choosing.
		if s.anchor == nil && lookup() {
			return nil
		}
		a, err := f()
		if err != nil || a == none {
			return err
		}
		if persist {
			blob = s.encode(a)
		}
		s.keep(a)
		art = a
		return nil
	}

	if st != nil {
		if data, ok := st.Get(s.stage, DiskKey(s.key)); ok {
			// A deserialized artifact is already in the store byte for byte.
			build(s.lock, func() (A, error) { return s.decode(data) }, false)
			if art != none && info.Status != StatusHit {
				info.Status = StatusDisk
			}
		}
	}
	if art == none {
		if err := ctx.Err(); err != nil {
			return none, info, err
		}
		if s.anchor != nil {
			if anchor, note := s.anchor(); anchor != nil {
				err := build(anchor.runLock, func() (A, error) {
					a, dirty, err := s.warm(anchor)
					if a != none {
						info.Status, info.Seed = StatusWarm, anchor.Digest
						info.Note = fmt.Sprintf("%sdirty=%d", note, dirty)
					}
					return a, err
				}, st != nil)
				anchor.Release()
				if err != nil {
					return none, info, err
				}
			}
		}
	}
	if art == none {
		if err := build(s.lock, s.compute, st != nil); err != nil {
			return none, info, err
		}
	}
	if info.Status == StatusHit { // built, filed and persisted by the request ahead
		return art, info, nil
	}
	if blob != nil {
		st.Put(s.stage, DiskKey(s.key), blob)
	}
	return art, info, nil
}

// Release lets go of the SRC artifact the run resolved — and with it, once
// no cache slot, baseline or other request holds it either, of every handle
// the outcome's artifacts carry. Every Run that returned an Outcome is paired
// with one Release, after the last use of those handles.
func (o *Outcome) Release() { o.SRC.Release() }

// Run drives Load's downstream stages to an Outcome, which the caller
// releases. req.Load must be set; stages are cached, persisted and
// warm-started as far as the Runner's tiers go.
func (r *Runner) Run(ctx context.Context, req *Request) (done *Outcome, err error) {
	if req.Load == nil || req.Load.Net == nil {
		return nil, errors.New("pipeline: request carries no loaded network")
	}
	if req.Mode.IsZero() {
		return nil, errors.New("pipeline: request Mode must be resolved by the caller")
	}
	routingProps, forwardingProps := SplitProperties(req.Properties)
	for _, p := range routingProps {
		if p == properties.BlockToExternal && req.BTE == 0 {
			return nil, fmt.Errorf("expresso: BlockToExternal requires Options.BTE")
		}
	}
	out := &Outcome{}
	// note records the provenance of the stage just resolved; a stage's
	// clock starts where the previous one's stopped.
	start := time.Now()
	note := func(info StageInfo) {
		info.Duration = time.Since(start)
		out.Stages = append(out.Stages, info)
		start = time.Now()
	}

	// --- SRC: the EPVP fixed point -------------------------------------
	src, info, err := resolve(ctx, r.Store, r.srcSpec(ctx, req), nil)
	if err != nil {
		return nil, err
	}
	note(info)
	out.SRC = src
	defer func() {
		if done == nil { // an error, or a panic on its way to the service's recover
			src.Release()
		}
	}()

	// --- RoutingAnalysis -----------------------------------------------
	out.Routing, info, err = resolve(ctx, r.Store, analysisSpec(ctx, StageRouting, RoutingKey(src.Digest, routingProps, req.BTE), src, nil, routingProps, req.BTE), &r.Cache.routing)
	if err != nil {
		return nil, err
	}
	note(info)
	if len(forwardingProps) == 0 {
		return out, nil
	}

	// --- SPF: symbolic packet forwarding -------------------------------
	out.SPF, info, err = resolve(ctx, r.Store, spfSpec(ctx, req, src, out.Routing), &r.Cache.spf)
	if err != nil {
		return nil, err
	}
	note(info)

	// --- ForwardingAnalysis --------------------------------------------
	out.Forwarding, info, err = resolve(ctx, r.Store, analysisSpec(ctx, StageForwarding, ForwardingKey(out.SPF.Digest, forwardingProps), src, out.SPF.Res, forwardingProps, 0), &r.Cache.forwarding)
	if err != nil {
		return nil, err
	}
	note(info)
	return out, nil
}

// srcSpec describes the SRC stage. Memory is the SRC cache, then the
// request's named baseline when it has the exact key: its converged state is
// resident for as long as it is registered, whatever the cache evicted. A
// fixed point restored from the store (which carries the exact converged
// state for the key, so only the policy compilation is paid) or computed
// cold lives in a manager born in this request, whose run lock is born with
// it; a warm start computes in the named baseline's manager and shares its
// lock. Whatever the rung, the artifact comes back held for the request.
func (r *Runner) srcSpec(ctx context.Context, req *Request) *stageSpec[*SRCArtifact] {
	key := SRCKey(req.Load.Digest, req.Mode)
	cached, own := r.Cache, &managerLock{}
	var base *Baseline
	if req.Baseline != "" && r.Baselines != nil {
		if b, ok := r.Baselines.Get(req.Baseline); ok && b.SRC.Eng.Mode == req.Mode {
			base = b
		}
	}
	return &stageSpec[*SRCArtifact]{
		stage: StageSRC, key: key, lock: own,
		lookup: func() (*SRCArtifact, string, bool) {
			if a, ok := cached.Get(key); ok && a.retain() {
				return a, "", true
			}
			if base != nil && base.SRC.Key == key && base.SRC.retain() {
				return base.SRC, "baseline=" + base.Name, true
			}
			return nil, "", false
		},
		decode: func(data []byte) (*SRCArtifact, error) {
			eng, err := epvp.NewContext(ctx, req.Load.Net, req.Mode)
			if err != nil {
				return nil, err
			}
			a, err := DecodeSRC(eng, req.Load, key, data)
			if err != nil {
				return nil, err
			}
			a.runLock = own
			return a, nil
		},
		compute: func() (*SRCArtifact, error) {
			eng, err := epvp.NewContext(ctx, req.Load.Net, req.Mode)
			if err != nil {
				return nil, err
			}
			return converge(eng, req, key, own, false, func() (*epvp.Result, error) { return eng.RunContext(ctx) })
		},
		keep: func(a *SRCArtifact) {
			a.pin()
			a.retain() // for the cache slot
			if old, ok := cached.Add(key, a); ok {
				old.Release()
			}
		},
		encode: EncodeSRC,
		// The named baseline is the one warm anchor: deterministic, resident,
		// independent of cache pressure. A request that names none, or names
		// one grown past the budget, runs cold in a manager of its own. The
		// compatibility of the symbolic universes (externals, community
		// atoms) is re-checked by epvp.NewWarm.
		anchor: func() (*SRCArtifact, string) {
			if base != nil && base.SRC.Eng.Space.M.NumNodes() < warmNodeBudget && base.SRC.retain() {
				return base.SRC, "baseline=" + base.Name + " "
			}
			return nil, ""
		},
		warm: func(anchor *SRCArtifact) (*SRCArtifact, int, error) {
			a, dirty, err := warmFrom(ctx, req, key, anchor)
			if a != nil {
				cached.warms.Add(1)
			}
			return a, dirty, err
		},
	}
}

// converge runs a compiled engine to its fixed point and wraps the result
// as the SRC artifact for srcKey, guarded by lock; warm says the engine
// was warm-started in an anchor's manager.
func converge(eng *epvp.Engine, req *Request, srcKey string, lock *managerLock, warm bool, run func() (*epvp.Result, error)) (*SRCArtifact, error) {
	eng.Workers = req.Workers
	eng.Trace = req.Trace
	res, err := run()
	eng.Trace = nil // the engine outlives the run in the cache
	if err != nil {
		return nil, err
	}
	return &SRCArtifact{
		Key: srcKey, Digest: hashHex(srcKey),
		Eng: eng, Res: res, Load: req.Load,
		Workers: eng.WorkerCount(),
		runLock: lock, warm: warm,
	}, nil
}

// warmFrom seeds the EPVP fixed point for srcKey from a prior converged
// artifact: compile only the changed routers' policies (epvp.NewWarm),
// then recompute the dirty closure from the prior RIBs. Returns (nil, 0,
// nil) when the universes are incompatible — the request then runs cold.
// Everything here builds nodes in the prior artifact's manager — the
// changed routers' policy compile as much as the warm run — so the caller
// holds the prior's run lock throughout: another job's pre-SPF sweep must
// neither run under the compile nor sweep the new fixed point before it is
// pinned. The warmed artifact shares that manager, and therefore that lock.
func warmFrom(ctx context.Context, req *Request, srcKey string, prior *SRCArtifact) (*SRCArtifact, int, error) {
	unchanged, dirty := UnchangedRouters(prior.Load, req.Load), DirtyRouters(prior.Load, req.Load)
	eng, err := epvp.NewWarm(ctx, req.Load.Net, req.Mode, prior.Eng, unchanged)
	if err != nil {
		return nil, 0, nil
	}
	src, err := converge(eng, req, srcKey, prior.runLock, true, func() (*epvp.Result, error) {
		return eng.RunWarmContext(ctx, prior.Res, dirty)
	})
	return src, len(dirty), err
}

// spfSpec describes the SPF stage, which allocates the data-plane variable
// block and builds its FIB and PEC predicates in the SRC artifact's
// manager — deserialized or computed alike.
func spfSpec(ctx context.Context, req *Request, src *SRCArtifact, routing *AnalysisArtifact) *stageSpec[*SPFArtifact] {
	key := SPFKey(src.Digest)
	m := src.Eng.Space.M
	return &stageSpec[*SPFArtifact]{
		stage: StageSPF, key: key, lock: src.runLock,
		lookup: func() (*SPFArtifact, string, bool) {
			d, _ := src.derived.Get(key)
			a, ok := d.(*SPFArtifact)
			return a, "", ok
		},
		decode: func(data []byte) (*SPFArtifact, error) { return DecodeSPF(src.Eng, key, data) },
		compute: func() (*SPFArtifact, error) {
			// The fixed point's intermediates are garbage now, and SPF is
			// about to add 33 data-plane variables per neighbor and build a
			// large fresh population on top, so this is a barrier worth a
			// sweep when the live population is over budget (small runs
			// never pause), and for a warm run, when its manager has doubled
			// since its first warm run (managerLock.relieveWarm).
			// The roots are this request's working set — pins cover what src
			// keeps, but a routing artifact pushed out of its table
			// mid-request must survive its own run too.
			roots := func() []bdd.Node { return append(src.handles(), routing.handles()...) }
			relief := epvp.Relieve(m, int64(m.NumNodes()), roots)
			if src.warm && relief.Sweeps == 0 {
				src.runLock.relieveWarm(m, roots)
			}
			// The engine may have converged for another request, or been
			// restored from the store: this request's worker count applies.
			src.Eng.Workers = req.Workers
			dp, err := spf.RunTraced(ctx, src.Eng, src.Res, req.Trace)
			if err != nil {
				return nil, err
			}
			return &SPFArtifact{Key: key, Digest: hashHex(key), Res: dp}, nil
		},
		keep:   func(a *SPFArtifact) { src.adopt(key, a) },
		encode: func(a *SPFArtifact) []byte { return EncodeSPF(a, m) },
	}
}

// analysisSpec describes one of the two analysis stages: the violations of
// props, in that order, whose condition predicates live in src's prefix
// manager. dp is the SPF result the forwarding stage reads (nil for the
// routing stage); its data-plane variable offset is what forwarding-stage
// conditions are built against, and the store codec relocates persisted
// predicates when the offsets differ between processes.
func analysisSpec(ctx context.Context, stage, key string, src *SRCArtifact, dp *spf.Result, props []properties.Kind, bte route.Community) *stageSpec[*AnalysisArtifact] {
	m := src.Eng.Space.M
	varBase := 0
	if dp != nil {
		varBase = dp.VarBase()
	}
	return &stageSpec[*AnalysisArtifact]{
		stage: stage, key: key, lock: src.runLock,
		lookup: func() (*AnalysisArtifact, string, bool) {
			d, _ := src.derived.Get(key)
			a, ok := d.(*AnalysisArtifact)
			return a, "", ok
		},
		decode: func(data []byte) (*AnalysisArtifact, error) { return DecodeAnalysis(m, key, varBase, data) },
		compute: func() (*AnalysisArtifact, error) {
			var vs []properties.Violation
			for _, k := range props {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				switch k {
				case properties.RouteLeakFree:
					vs = append(vs, properties.CheckRouteLeak(src.Eng, src.Res)...)
				case properties.RouteHijackFree:
					vs = append(vs, properties.CheckRouteHijack(src.Eng, src.Res)...)
				case properties.BlockToExternal:
					vs = append(vs, properties.CheckBlockToExternal(src.Eng, src.Res, bte)...)
				case properties.TrafficHijackFree:
					vs = append(vs, properties.CheckTrafficHijack(src.Eng, dp)...)
				case properties.BlackHoleFree:
					vs = append(vs, properties.CheckBlackHole(src.Eng, dp, properties.InternalDestPredicate(src.Eng, dp))...)
				case properties.LoopFree:
					vs = append(vs, properties.CheckLoop(src.Eng, dp)...)
				}
			}
			return &AnalysisArtifact{Key: key, Violations: vs}, nil
		},
		keep:   func(a *AnalysisArtifact) { src.adopt(key, a) },
		encode: func(a *AnalysisArtifact) []byte { return EncodeAnalysis(a, m, varBase) },
	}
}

package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
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

// gcHeapThreshold is the heap-pressure cutoff of the post-SRC reclamation.
// Small enough that the paper-scale snapshots (multi-GB memos) always
// reclaim, large enough that testnet-sized service traffic never pays a
// forced GC per request.
const gcHeapThreshold = 256 << 20

// reclaimAfterSRC drops the engine's op caches and forces a collection
// between a freshly built SRC fixed point and the analysis stages, but only
// under heap pressure: right for one-shot verification of the paper's large
// snapshots (the memo is often gigabytes), wrong as an always-on cost for a
// service verifying small snapshots at high rate. It returns the provenance
// note.
func reclaimAfterSRC(src *SRCArtifact) string {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc < gcHeapThreshold {
		return "gc=skipped"
	}
	// The fixed point is done: the ITE memo is pure acceleration state and
	// the analysis stages rebuild what they need. The memo belongs to the
	// manager's default worker, which a warm artifact shares with every
	// other job on its baseline.
	src.withLock(src.Eng.Space.M.ClearCaches)
	runtime.GC()
	return "gc=forced"
}

// Stage statuses recorded in StageInfo provenance entries.
const (
	StatusHit  = "hit"  // artifact served from the stage cache
	StatusMiss = "miss" // artifact computed cold
	StatusWarm = "warm" // SRC only: computed, but seeded from a cached prior
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
	// Note carries stage-specific detail: the warm-start dirty count, the
	// anchoring baseline's name, and whether the post-SRC reclamation
	// fired.
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

// warmNodeBudget bounds the live BDD node count of a manager the Runner
// is willing to warm-start into. Warm chains share one manager; dead-node
// reclamation between EPVP rounds keeps the live population bounded, but
// a manager whose pinned artifacts alone exceed the budget is past the
// point where a cold start with a fresh manager is cheaper than dragging
// the old universe along.
const warmNodeBudget = 4 << 20

// Runner executes the staged pipeline. A nil Cache runs every stage cold
// — byte-identical results, no reuse — which is exactly what the plain
// expresso.Verify path wants (its determinism tests compare repeated
// runs, including iteration counts).
type Runner struct {
	Cache *StageCache
	// Store, when non-nil, is the persistent second tier under the stage
	// cache: SRC, SPF, and analysis artifacts are written through to it
	// and, on an in-memory miss, read back and deserialized — so a cold
	// process (or a second replica sharing the store directory)
	// warm-starts from a previously converged state. Store traffic is
	// keyed by DiskKey of the stage key and gated on the same text-born
	// condition as the cache; failures degrade to recompute.
	Store store.Tier
	// Baselines, when non-nil, resolves Request.Baseline names to pinned
	// converged states — the explicit anchor of the SRC stage's
	// baseline-exact and warm rungs.
	Baselines *BaselineRegistry
}

// stageSpec is everything that differs between stages; where an artifact
// comes from, and when it is pinned, cached and persisted, is
// Runner.resolve and the same for all of them.
type stageSpec struct {
	stage, key string
	// lock is the run lock of the BDD manager the artifact is decoded,
	// computed and encoded in.
	lock sync.Locker
	// decode rebuilds the artifact from a store blob; an error — corrupt
	// blob, schema mismatch — degrades to the rungs below. compute builds
	// it from the upstream artifacts. Both return it unpinned.
	decode  func(data []byte) (artifact, error)
	compute func() (artifact, error)
	encode  func(a artifact) []byte

	// SRC's two extra rungs; nil for every other stage. baseline is the
	// request's named baseline, anchor picks what a warm start chains on
	// (with its provenance note prefix), and warm computes from it,
	// returning the dirty-router count, or (nil, 0, nil) when the anchor's
	// symbolic universe does not fit the request.
	baseline *Baseline
	anchor   func() (*SRCArtifact, string)
	warm     func(anchor *SRCArtifact) (*SRCArtifact, int, error)
	// settle, when set, runs once an artifact that was not simply served
	// from memory is cached and persisted, and adds to the provenance note.
	settle func(a artifact) string
}

// resolve is the one resolution ladder: memory → the named baseline with
// the exact key → disk → warm from an anchor → cold. Whichever rung builds
// the artifact does so under the run lock of the manager it builds in and
// pins it before that lock is released, so the artifact is rooted before
// anything else (another job's sweep on a shared baseline manager, this
// request's own pre-SPF sweep) can reclaim in that manager; a built
// artifact then enters the stage cache, and one that did not come from the
// store is encoded — under the lock again — and written through to it.
// Duration is left to the caller.
func (r *Runner) resolve(ctx context.Context, s *stageSpec, cacheable, diskable bool) (artifact, StageInfo, error) {
	info := StageInfo{Stage: s.stage, Status: StatusMiss, Key: s.key}
	if cacheable {
		if v, ok := r.Cache.Get(s.stage, s.key); ok {
			info.Status = StatusHit
			return v.(artifact), info, nil
		}
	}
	// The named baseline with the exact key: its converged state is
	// resident and pinned, so serving it costs nothing — and unlike the
	// stage cache, it cannot have been evicted. It is never inserted into
	// the stage cache, whose eviction unpin would race the registry's own
	// pin bookkeeping; the baseline's pins alone keep it resident.
	if b := s.baseline; b != nil && b.SRC.Key == s.key {
		info.Status = StatusHit
		info.Note = "baseline=" + b.Name
		return b.SRC, info, nil
	}

	var art artifact
	held := s.lock // the lock art was built under
	build := func(lock sync.Locker, f func() (artifact, error)) error {
		lock.Lock()
		defer lock.Unlock()
		a, err := f()
		if err != nil || a == nil {
			return err
		}
		a.pinHandles()
		art, held = a, lock
		return nil
	}

	if diskable {
		if data, ok := r.Store.Get(s.stage, DiskKey(s.key)); ok {
			build(s.lock, func() (artifact, error) { return s.decode(data) })
			if art != nil {
				info.Status = StatusDisk
			}
		}
	}
	if art == nil {
		if err := ctx.Err(); err != nil {
			return nil, info, err
		}
		if s.anchor != nil {
			if anchor, note := s.anchor(); anchor != nil {
				err := build(anchor.runLock, func() (artifact, error) {
					a, dirty, err := s.warm(anchor)
					if a == nil {
						return nil, err
					}
					info.Status, info.Seed = StatusWarm, anchor.Digest
					info.Note = fmt.Sprintf("%sdirty=%d", note, dirty)
					return a, nil
				})
				if err != nil {
					return nil, info, err
				}
				if cacheable && art != nil {
					r.Cache.NoteWarm()
				}
			}
		}
	}
	if art == nil {
		if err := build(s.lock, s.compute); err != nil {
			return nil, info, err
		}
	}
	if cacheable {
		r.Cache.Add(s.stage, s.key, art)
	}
	// A deserialized artifact is already in the store byte for byte.
	if diskable && info.Status != StatusDisk {
		var blob []byte
		locked(held, func() { blob = s.encode(art) })
		r.Store.Put(s.stage, DiskKey(s.key), blob)
	}
	if s.settle != nil {
		info.Note = strings.TrimSpace(info.Note + " " + s.settle(art))
	}
	return art, info, nil
}

// Run drives Load's downstream stages to an Outcome. req.Load must be
// set; stages are cached, persisted and warm-started only when the load
// carries a digest (text-born) and the Runner has the tier in question.
func (r *Runner) Run(ctx context.Context, req *Request) (*Outcome, error) {
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
	cacheable := r.Cache != nil && req.Load.Digest != ""
	diskable := r.Store != nil && req.Load.Digest != ""
	out := &Outcome{}
	// stage resolves one stage and records its provenance.
	stage := func(s *stageSpec) (artifact, error) {
		start := time.Now()
		art, info, err := r.resolve(ctx, s, cacheable, diskable)
		if err != nil {
			return nil, err
		}
		info.Duration = time.Since(start)
		out.Stages = append(out.Stages, info)
		return art, nil
	}

	// --- SRC: the EPVP fixed point -------------------------------------
	art, err := stage(r.srcSpec(ctx, req, cacheable))
	if err != nil {
		return nil, err
	}
	src := art.(*SRCArtifact)
	out.SRC = src

	// --- RoutingAnalysis -----------------------------------------------
	art, err = stage(analysisSpec(ctx, StageRouting, RoutingKey(src.Digest, routingProps, req.BTE), src, nil, routingProps, req.BTE))
	if err != nil {
		return nil, err
	}
	routing := art.(*AnalysisArtifact)
	out.Routing = routing

	if len(forwardingProps) == 0 {
		return out, nil
	}

	// --- SPF: symbolic packet forwarding -------------------------------
	art, err = stage(spfSpec(ctx, req, src, routing))
	if err != nil {
		return nil, err
	}
	spfArt := art.(*SPFArtifact)
	out.SPF = spfArt

	// --- ForwardingAnalysis --------------------------------------------
	art, err = stage(analysisSpec(ctx, StageForwarding, ForwardingKey(spfArt.Digest, forwardingProps), src, spfArt.Res, forwardingProps, 0))
	if err != nil {
		return nil, err
	}
	out.Forwarding = art.(*AnalysisArtifact)
	return out, nil
}

// srcSpec describes the SRC stage. A fixed point restored from the store
// (which carries the exact converged state for the key, so only the policy
// compilation is paid) or computed cold lives in a manager born in this
// request, whose run lock is born with it; a warm start computes in its
// anchor's manager and shares the anchor's lock.
func (r *Runner) srcSpec(ctx context.Context, req *Request, cacheable bool) *stageSpec {
	key := SRCKey(req.Load.Digest, req.Mode)
	own := &sync.Mutex{}
	s := &stageSpec{
		stage: StageSRC, key: key, lock: own,
		decode: func(data []byte) (artifact, error) {
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
		compute: func() (artifact, error) {
			eng, err := epvp.NewContext(ctx, req.Load.Net, req.Mode)
			if err != nil {
				return nil, err
			}
			return converge(eng, req, key, own, func() (*epvp.Result, error) { return eng.RunContext(ctx) })
		},
		encode: func(a artifact) []byte { return EncodeSRC(a.(*SRCArtifact)) },
		warm: func(anchor *SRCArtifact) (*SRCArtifact, int, error) {
			return warmFrom(ctx, req, key, anchor)
		},
		settle: func(a artifact) string { return reclaimAfterSRC(a.(*SRCArtifact)) },
	}
	if req.Baseline != "" && r.Baselines != nil {
		if b, ok := r.Baselines.Get(req.Baseline); ok && b.SRC.Eng.Mode == req.Mode {
			s.baseline = b
		}
	}
	// The named baseline is the explicit warm anchor: deterministic, pinned,
	// independent of cache pressure. Anonymous requests — and a baseline
	// grown past the budget — chain on the most recently used artifact the
	// SRC cache still holds that a warm start may use: same mode, text-born
	// (diffable), node table under budget. The compatibility of the symbolic
	// universes (externals, community atoms) is re-checked by epvp.NewWarm.
	s.anchor = func() (found *SRCArtifact, note string) {
		if b := s.baseline; b != nil && b.SRC.Eng.Space.M.NumNodes() < warmNodeBudget {
			return b.SRC, "baseline=" + b.Name + " "
		}
		if cacheable {
			r.Cache.Scan(StageSRC, func(v any) bool {
				a := v.(*SRCArtifact)
				if a.Eng.Mode == req.Mode && a.Load.Digest != "" && a.Eng.Space.M.NumNodes() < warmNodeBudget {
					found = a
				}
				return found != nil
			})
		}
		return found, ""
	}
	return s
}

// converge runs a compiled engine to its fixed point and wraps the result
// as the SRC artifact for srcKey, guarded by lock.
func converge(eng *epvp.Engine, req *Request, srcKey string, lock *sync.Mutex, run func() (*epvp.Result, error)) (*SRCArtifact, error) {
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
		runLock: lock,
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
	src, err := converge(eng, req, srcKey, prior.runLock, func() (*epvp.Result, error) {
		return eng.RunWarmContext(ctx, prior.Res, dirty)
	})
	return src, len(dirty), err
}

// spfSpec describes the SPF stage, which allocates the data-plane variable
// block and builds its FIB and PEC predicates in the SRC artifact's
// manager — deserialized or computed alike.
func spfSpec(ctx context.Context, req *Request, src *SRCArtifact, routing *AnalysisArtifact) *stageSpec {
	key := SPFKey(src.Digest)
	m := src.Eng.Space.M
	return &stageSpec{
		stage: StageSPF, key: key, lock: src.runLock,
		decode: func(data []byte) (artifact, error) { return built(DecodeSPF(src.Eng, key, data)) },
		compute: func() (artifact, error) {
			// The fixed point's intermediates are garbage now, and SPF is
			// about to add 33 data-plane variables per neighbor and build a
			// large fresh population on top, so this is a barrier worth a
			// sweep or a sift when the live population is over budget (small
			// runs never pause). The roots are this request's working set —
			// pins cover the cached artifacts, but an artifact evicted
			// mid-request must survive its own run too.
			live := int64(m.NumNodes())
			epvp.Relieve(m, epvp.Pressure{Sift: live, Sweep: live}, func() []bdd.Node {
				return append(src.handles(), routing.handles()...)
			})
			dp, err := spf.RunTraced(ctx, src.Eng, src.Res, req.Trace)
			if err != nil {
				return nil, err
			}
			return &SPFArtifact{Key: key, Digest: hashHex(key), Res: dp, m: m}, nil
		},
		encode: func(a artifact) []byte { return EncodeSPF(a.(*SPFArtifact), m) },
	}
}

// analysisSpec describes one of the two analysis stages: the violations of
// props, in that order, whose condition predicates live in src's prefix
// manager. dp is the SPF result the forwarding stage reads (nil for the
// routing stage); its data-plane variable offset is what forwarding-stage
// conditions are built against, and the store codec relocates persisted
// predicates when the offsets differ between processes.
func analysisSpec(ctx context.Context, stage, key string, src *SRCArtifact, dp *spf.Result, props []properties.Kind, bte route.Community) *stageSpec {
	m := src.Eng.Space.M
	varBase := 0
	if dp != nil {
		varBase = dp.VarBase()
	}
	return &stageSpec{
		stage: stage, key: key, lock: src.runLock,
		decode: func(data []byte) (artifact, error) { return built(DecodeAnalysis(m, key, varBase, data)) },
		compute: func() (artifact, error) {
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
			return &AnalysisArtifact{Key: key, Violations: vs, m: m}, nil
		},
		encode: func(a artifact) []byte { return EncodeAnalysis(a.(*AnalysisArtifact), m, varBase) },
	}
}

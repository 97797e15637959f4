package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/expresso-verify/expresso/internal/epvp"
	"github.com/expresso-verify/expresso/internal/properties"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/spf"
	"github.com/expresso-verify/expresso/internal/store"
	"github.com/expresso-verify/expresso/internal/telemetry"
)

// GCMode controls the memory reclamation between the SRC fixed point and
// the analysis stages. The pre-pipeline monolith unconditionally dropped
// the engine's ITE memos and forced a garbage collection there — right
// for one-shot verification of the paper's large snapshots (the memo is
// often gigabytes), wrong as an always-on cost for a service verifying
// small snapshots at high rate.
type GCMode int

const (
	// GCAuto (the default) reclaims only under heap pressure: when the
	// post-SRC live heap exceeds gcHeapThreshold.
	GCAuto GCMode = iota
	// GCAlways reclaims after every SRC computation (the old behavior).
	GCAlways
	// GCNever skips reclamation entirely.
	GCNever
)

// gcHeapThreshold is the GCAuto heap-pressure cutoff. Small enough that
// the paper-scale snapshots (multi-GB memos) always reclaim, large enough
// that testnet-sized service traffic never pays a forced GC per request.
const gcHeapThreshold = 256 << 20

// String renders the mode for logs and provenance notes.
func (g GCMode) String() string {
	switch g {
	case GCAlways:
		return "always"
	case GCNever:
		return "never"
	default:
		return "auto"
	}
}

// reclaim applies the GC policy after a freshly computed SRC fixed point,
// reporting whether it forced a collection.
func reclaim(mode GCMode, src *SRCArtifact) bool {
	switch mode {
	case GCNever:
		return false
	case GCAlways:
	default: // GCAuto: only under heap pressure
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc < gcHeapThreshold {
			return false
		}
	}
	// The fixed point is done: the ITE memo is pure acceleration state and
	// the analysis stages rebuild what they need. The memo belongs to the
	// manager's default worker, which a warm artifact shares with every
	// other job on its baseline.
	src.withLock(src.Eng.Space.M.ClearCaches)
	runtime.GC()
	return true
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
	GC         GCMode
	// Baseline names the registered baseline this request is a delta
	// against (""= none). When set and the Runner has a registry, the SRC
	// stage anchors on the baseline's pinned converged state: an exact
	// config match serves it directly, anything else warm-starts from it.
	// Like the stage cache, the anchor never changes what a report says.
	Baseline string
	// Trace, when non-nil, receives fine-grained engine events for the
	// stages that actually compute (EPVP rounds, SPF per-router work).
	// Stage spans themselves are recorded by the caller from the
	// Outcome's StageInfos. Like Workers and GC, Trace never changes a
	// report's content and is absent from every cache key.
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
	// and, on an in-memory miss, read back and deserialized into a fresh
	// manager — so a cold process (or a second replica sharing the store
	// directory) warm-starts from a previously converged state. Store
	// traffic is keyed by the hash of the stage key and gated on the same
	// text-born condition as the cache; failures degrade to recompute.
	Store store.Tier
	// Baselines, when non-nil, resolves Request.Baseline names to pinned
	// converged states — the explicit warm-start anchor tier between the
	// exact-key lookups and the opportunistic warm-candidate scan.
	Baselines *BaselineRegistry
}

// diskKey is the store address of a stage key: stage keys embed '|'-joined
// digest chains, so the store sees their hash (a content address of a
// content address — collision-free for the same reason the keys are).
func diskKey(key string) string { return hashHex(key) }

// Run drives Load's downstream stages to an Outcome. req.Load must be
// set; stages are cached and warm-started only when the load carries a
// digest (text-born) and the Runner has a cache.
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

	// --- SRC: the EPVP fixed point -------------------------------------
	srcKey := SRCKey(req.Load.Digest, req.Mode)
	start := time.Now()
	src, info, err := r.resolveSRC(ctx, req, srcKey, cacheable, diskable)
	if err != nil {
		return nil, err
	}
	info.Duration = time.Since(start)
	out.SRC = src
	out.Stages = append(out.Stages, info)

	// --- RoutingAnalysis -----------------------------------------------
	routingKey := RoutingKey(src.Digest, routingProps, req.BTE)
	start = time.Now()
	routing, status, err := r.resolveAnalysis(ctx, StageRouting, routingKey, cacheable, diskable, src, 0, func() ([]properties.Violation, error) {
		var vs []properties.Violation
		src.lock()
		defer src.unlock()
		for _, k := range routingProps {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			switch k {
			case properties.RouteLeakFree:
				vs = append(vs, properties.CheckRouteLeak(src.Eng, src.Res)...)
			case properties.RouteHijackFree:
				vs = append(vs, properties.CheckRouteHijack(src.Eng, src.Res)...)
			case properties.BlockToExternal:
				vs = append(vs, properties.CheckBlockToExternal(src.Eng, src.Res, req.BTE)...)
			}
		}
		return vs, nil
	})
	if err != nil {
		return nil, err
	}
	out.Routing = routing
	out.Stages = append(out.Stages, StageInfo{Stage: StageRouting, Status: status, Key: routingKey, Duration: time.Since(start)})

	if len(forwardingProps) == 0 {
		return out, nil
	}

	// --- SPF: symbolic packet forwarding -------------------------------
	spfKey := SPFKey(src.Digest)
	start = time.Now()
	var spfArt *SPFArtifact
	status = StatusMiss
	if cacheable {
		if v, ok := r.Cache.Get(StageSPF, spfKey); ok {
			spfArt = v.(*SPFArtifact)
			status = StatusHit
		}
	}
	if spfArt == nil && diskable {
		if data, ok := r.Store.Get(StageSPF, diskKey(spfKey)); ok {
			// Deserialization allocates the data-plane variable block and
			// builds nodes in the shared SRC manager: serialize against its
			// other users exactly like a computed SPF run.
			var art *SPFArtifact
			var derr error
			src.withLock(func() {
				if art, derr = DecodeSPF(src.Eng, spfKey, data); derr == nil {
					art.pinHandles(src.Eng.Space.M)
				}
			})
			if derr == nil {
				spfArt = art
				status = StatusDisk
				if cacheable {
					r.Cache.Add(StageSPF, spfKey, spfArt)
				}
			}
		}
	}
	if spfArt == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Dead-node sweep before SPF: the fixed point's intermediates are
		// garbage now, and SPF is about to add 33 data-plane variables per
		// neighbor and build a large fresh population on top. Gated on the
		// same growth budget as the between-round sweeps so small runs
		// never pause. The roots are this request's working set — pins
		// cover the cached artifacts, but an artifact evicted mid-request
		// must survive its own run too.
		// Reordering subsumes the sweep (it reclaims on entry), so at most
		// one of the two stop-the-world passes runs here.
		var dp *spf.Result
		src.withLock(func() {
			if budget, on := telemetry.ReorderBudgetFromEnv(); on && src.Eng.Space.M.NumNodes() >= budget {
				src.Eng.Space.M.Reorder(append(src.handles(), routing.handles()...)...)
			} else if budget, on := telemetry.ReclaimBudgetFromEnv(); on && src.Eng.Space.M.NumNodes() >= budget {
				src.Eng.Space.M.Reclaim(append(src.handles(), routing.handles()...)...)
			}
			dp, err = spf.RunTraced(ctx, src.Eng, src.Res, req.Trace)
		})
		if err != nil {
			return nil, err
		}
		spfArt = &SPFArtifact{Key: spfKey, Digest: hashHex(spfKey), Res: dp}
		spfArt.pinHandles(src.Eng.Space.M)
		if cacheable {
			r.Cache.Add(StageSPF, spfKey, spfArt)
		}
		if diskable {
			var blob []byte
			src.withLock(func() { blob = EncodeSPF(spfArt, src.Eng.Space.M) })
			r.Store.Put(StageSPF, diskKey(spfKey), blob)
		}
	}
	out.SPF = spfArt
	out.Stages = append(out.Stages, StageInfo{Stage: StageSPF, Status: status, Key: spfKey, Duration: time.Since(start)})

	// --- ForwardingAnalysis --------------------------------------------
	forwardingKey := ForwardingKey(spfArt.Digest, forwardingProps)
	start = time.Now()
	forwarding, status, err := r.resolveAnalysis(ctx, StageForwarding, forwardingKey, cacheable, diskable, src, spfArt.Res.VarBase(), func() ([]properties.Violation, error) {
		var vs []properties.Violation
		src.lock()
		defer src.unlock()
		for _, k := range forwardingProps {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			switch k {
			case properties.TrafficHijackFree:
				vs = append(vs, properties.CheckTrafficHijack(src.Eng, spfArt.Res)...)
			case properties.BlackHoleFree:
				vs = append(vs, properties.CheckBlackHole(src.Eng, spfArt.Res,
					properties.InternalDestPredicate(src.Eng, spfArt.Res))...)
			case properties.LoopFree:
				vs = append(vs, properties.CheckLoop(src.Eng, spfArt.Res)...)
			}
		}
		return vs, nil
	})
	if err != nil {
		return nil, err
	}
	out.Forwarding = forwarding
	out.Stages = append(out.Stages, StageInfo{Stage: StageForwarding, Status: status, Key: forwardingKey, Duration: time.Since(start)})
	return out, nil
}

// resolveSRC returns the SRC artifact for the request: cached when the
// exact key is present, deserialized from the persistent tier when it
// holds the key, served or warm-started from the request's named baseline
// when one is registered, warm-started from a compatible cached prior
// when one exists, cold otherwise. Whichever branch builds the artifact
// pins it at birth — even when uncacheable — so the fixed point is rooted
// before anything else (a concurrent warm run, this request's own pre-SPF
// sweep) can sweep its manager.
func (r *Runner) resolveSRC(ctx context.Context, req *Request, srcKey string, cacheable, diskable bool) (*SRCArtifact, StageInfo, error) {
	info := StageInfo{Stage: StageSRC, Status: StatusMiss, Key: srcKey}
	if cacheable {
		if v, ok := r.Cache.Get(StageSRC, srcKey); ok {
			info.Status = StatusHit
			return v.(*SRCArtifact), info, nil
		}
	}
	// The named baseline with the exact key beats everything else: its
	// converged state is already resident and pinned, so serving it costs
	// nothing — and unlike the stage cache, it cannot have been evicted.
	var baseline *Baseline
	if req.Baseline != "" && r.Baselines != nil {
		if b, ok := r.Baselines.Get(req.Baseline); ok && b.SRC.Eng.Mode == req.Mode {
			baseline = b
			if b.SRC.Key == srcKey {
				// Served straight from the registry — never re-inserted
				// into the stage cache, whose eviction unpin would race
				// the registry's own pin bookkeeping. The artifact stays
				// resident through the baseline's pins alone.
				info.Status = StatusHit
				info.Note = "baseline=" + b.Name
				return b.SRC, info, nil
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, info, err
	}

	var src *SRCArtifact
	// The persistent tier beats a warm start: it carries the exact
	// converged fixed point for this key, so only the policy compilation
	// (epvp.NewContext) is paid. A decode failure — corrupt blob, schema
	// mismatch — falls through to recompute, reusing the compiled engine.
	var eng *epvp.Engine
	if diskable {
		if data, ok := r.Store.Get(StageSRC, diskKey(srcKey)); ok {
			var err error
			if eng, err = epvp.NewContext(ctx, req.Load.Net, req.Mode); err != nil {
				return nil, info, err
			}
			if decoded, err := DecodeSRC(eng, req.Load, srcKey, data); err == nil {
				src = decoded
				src.pinHandles()
				info.Status = StatusDisk
			}
		}
	}
	// The named baseline is the explicit warm anchor: deterministic, pinned,
	// independent of cache pressure. The opportunistic scan over whatever
	// the SRC cache still holds remains as the fallback for anonymous
	// requests.
	if src == nil && baseline != nil && baseline.SRC.Eng.Space.M.NumNodes() < warmNodeBudget {
		warmed, dirty, err := r.warmFrom(ctx, req, srcKey, baseline.SRC)
		if err != nil {
			return nil, info, err
		}
		if warmed != nil {
			src = warmed
			info.Status = StatusWarm
			info.Seed = baseline.SRC.Digest
			info.Note = fmt.Sprintf("baseline=%s dirty=%d", baseline.Name, dirty)
			if cacheable {
				r.Cache.NoteWarm()
			}
		}
	}
	if src == nil && cacheable {
		if prior := r.warmCandidate(req.Mode); prior != nil {
			warmed, dirty, err := r.warmFrom(ctx, req, srcKey, prior)
			if err != nil {
				return nil, info, err
			}
			if warmed != nil {
				src = warmed
				info.Status = StatusWarm
				info.Seed = prior.Digest
				info.Note = fmt.Sprintf("dirty=%d", dirty)
				r.Cache.NoteWarm()
			}
		}
	}
	if src == nil {
		// eng may be left over from a failed store decode; otherwise
		// compile now.
		if eng == nil {
			var err error
			if eng, err = epvp.NewContext(ctx, req.Load.Net, req.Mode); err != nil {
				return nil, info, err
			}
		}
		eng.Workers = req.Workers
		eng.Trace = req.Trace
		res, err := eng.RunContext(ctx)
		eng.Trace = nil // the engine outlives the run in the cache
		if err != nil {
			return nil, info, err
		}
		src = &SRCArtifact{
			Key: srcKey, Digest: hashHex(srcKey),
			Eng: eng, Res: res, Load: req.Load,
			Workers: eng.WorkerCount(),
			runLock: &sync.Mutex{},
		}
		src.pinHandles()
	}
	if cacheable {
		r.Cache.Add(StageSRC, srcKey, src)
	}
	// Write a freshly computed fixed point through to the persistent tier
	// (a deserialized one is already there byte-for-byte).
	if diskable && info.Status != StatusDisk {
		var blob []byte
		src.withLock(func() { blob = EncodeSRC(src) })
		r.Store.Put(StageSRC, diskKey(srcKey), blob)
	}
	gcNote := "gc=skipped"
	if reclaim(req.GC, src) {
		gcNote = "gc=forced"
	}
	if info.Note != "" {
		info.Note += " "
	}
	info.Note += gcNote
	return src, info, nil
}

// warmFrom seeds the EPVP fixed point for srcKey from a prior converged
// artifact: compile only the changed routers' policies (epvp.NewWarm),
// then recompute the dirty closure from the prior RIBs. Returns (nil, 0,
// nil) when the universes are incompatible — the caller falls through to
// the next resolution tier. The warmed artifact computes in the prior's
// manager and therefore shares its run lock.
func (r *Runner) warmFrom(ctx context.Context, req *Request, srcKey string, prior *SRCArtifact) (*SRCArtifact, int, error) {
	unchanged, dirty := UnchangedRouters(prior.Load, req.Load), DirtyRouters(prior.Load, req.Load)
	// Everything from here to the pin builds nodes in the prior artifact's
	// manager — the changed routers' policy compile as much as the warm run
	// — so all of it is serialized against the manager's other users:
	// another job's pre-SPF Reclaim must neither run under the compile nor
	// sweep the new fixed point before it is rooted.
	prior.lock()
	defer prior.unlock()
	eng, err := epvp.NewWarm(ctx, req.Load.Net, req.Mode, prior.Eng, unchanged)
	if err != nil {
		return nil, 0, nil
	}
	eng.Workers = req.Workers
	eng.Trace = req.Trace
	res, err := eng.RunWarmContext(ctx, prior.Res, dirty)
	eng.Trace = nil // the engine outlives the run in the cache
	if err != nil {
		return nil, 0, err
	}
	src := &SRCArtifact{
		Key: srcKey, Digest: hashHex(srcKey),
		Eng: eng, Res: res, Load: req.Load,
		Workers: eng.WorkerCount(),
		runLock: prior.runLock, // shared manager, shared lock
	}
	src.pinHandles()
	return src, len(dirty), nil
}

// warmCandidate scans the SRC stage for the most recently used artifact a
// warm start may chain on: same mode, text-born (diffable), and a node
// table still under budget. The compatibility of the symbolic universes
// (externals, community atoms) is re-checked by epvp.NewWarm.
func (r *Runner) warmCandidate(mode epvp.Mode) *SRCArtifact {
	var found *SRCArtifact
	r.Cache.Scan(StageSRC, func(v any) bool {
		a := v.(*SRCArtifact)
		if a.Eng.Mode == mode && a.Load.Digest != "" && a.Eng.Space.M.NumNodes() < warmNodeBudget {
			found = a
			return true
		}
		return false
	})
	return found
}

// resolveAnalysis is the shared cache-or-compute driver of the two
// analysis stages. The violations' condition predicates live in src's
// prefix manager; the artifact pins them there. varBase is the data-plane
// variable offset forwarding-stage conditions are built against (0 for the
// routing stage) — the store codec relocates persisted predicates when the
// offsets differ between processes.
func (r *Runner) resolveAnalysis(ctx context.Context, stage, key string, cacheable, diskable bool, src *SRCArtifact, varBase int, compute func() ([]properties.Violation, error)) (*AnalysisArtifact, string, error) {
	m := src.Eng.Space.M
	if cacheable {
		if v, ok := r.Cache.Get(stage, key); ok {
			return v.(*AnalysisArtifact), StatusHit, nil
		}
	}
	if diskable {
		if data, ok := r.Store.Get(stage, diskKey(key)); ok {
			var art *AnalysisArtifact
			var err error
			src.withLock(func() {
				if art, err = DecodeAnalysis(m, key, varBase, data); err == nil {
					art.pinHandles(m)
				}
			})
			if err == nil {
				if cacheable {
					r.Cache.Add(stage, key, art)
				}
				return art, StatusDisk, nil
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, StatusMiss, err
	}
	vs, err := compute()
	if err != nil {
		return nil, StatusMiss, err
	}
	art := &AnalysisArtifact{Key: key, Violations: vs}
	art.pinHandles(m)
	if cacheable {
		r.Cache.Add(stage, key, art)
	}
	if diskable {
		var blob []byte
		src.withLock(func() { blob = EncodeAnalysis(art, m, varBase) })
		r.Store.Put(stage, diskKey(key), blob)
	}
	return art, StatusMiss, nil
}

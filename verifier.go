package expresso

import (
	"context"
	"time"

	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/pipeline"
	"github.com/expresso-verify/expresso/internal/store"
)

// StageInfo re-exports the pipeline's per-stage provenance record: which
// stage ran, whether its artifact was a cache hit, a cold miss, or a
// warm-started computation, under what key, and how long it took.
type StageInfo = pipeline.StageInfo

// StageCacheStat re-exports one stage's cache counters.
type StageCacheStat = pipeline.StageStat

// Stage provenance statuses (StageInfo.Status).
const (
	StageHit  = pipeline.StatusHit
	StageMiss = pipeline.StatusMiss
	StageWarm = pipeline.StatusWarm
	// StageDisk marks an artifact deserialized from the persistent store
	// tier (see VerifierConfig.StoreDir) rather than recomputed.
	StageDisk = pipeline.StatusDisk
)

// StoreStats re-exports the persistent tier's traffic counters.
type StoreStats = store.Stats

// VerifierConfig sizes a Verifier's memory tiers. Zero fields take the
// pipeline defaults; negative values disable that tier.
type VerifierConfig struct {
	// LoadCache holds parsed networks keyed by config digest.
	LoadCache int
	// SRCCache holds converged EPVP fixed points — the expensive stage —
	// each together with the routing, SPF and forwarding results computed
	// on it, which live and die with it. Each entry pins a BDD manager, so
	// the default is small (4).
	SRCCache int
	// ReportCache holds assembled reports keyed by ReportDigest.
	ReportCache int
	// StoreDir, when non-empty, enables the persistent artifact store: an
	// on-disk content-addressed tier under the stage caches. SRC, SPF, and
	// analysis artifacts are written through to it and read back on a
	// miss, so a restarted process — or a second replica sharing the
	// directory — serves warm verifications without recomputing the fixed
	// point. A directory that cannot be opened disables the tier silently
	// (persistence is best-effort by design; use Store to check).
	StoreDir string
	// StoreBudget bounds the store directory's size in bytes;
	// least-recently-used blobs are evicted past it. 0 means unlimited.
	StoreBudget int64
}

// Verifier runs text-submitted verifications through the staged pipeline
// with stage-granular caching and incremental EPVP warm-starts:
//
//   - An identical resubmission is answered from the report cache.
//   - A property-set change reuses the converged SRC artifact and re-runs
//     only the analysis stages (adding a forwarding property also reuses
//     a cached SPF artifact if one exists).
//   - A config delta against a registered baseline (RegisterBaseline, then
//     VerifyDelta or VerifyTextFrom) warm-starts the EPVP fixed point from
//     the baseline's converged state, recomputing only the dirty closure —
//     and produces a report byte-identical (up to timings, heap, and
//     iteration counts) to a cold run. A run that names no baseline
//     computes its fixed point cold, in a BDD manager of its own.
//
// A Verifier is safe for concurrent use; computation on shared symbolic
// state is serialized per SRC artifact. The zero Verifier is the cold one:
// its tiers keep nothing and it has no store, so every run computes every
// stage.
type Verifier struct {
	cache     pipeline.StageCache[*Report]
	store     store.Tier
	baselines pipeline.BaselineRegistry
}

// NewVerifier builds a Verifier with the configured cache capacities and,
// when cfg.StoreDir is set, the persistent store tier.
func NewVerifier(cfg VerifierConfig) *Verifier {
	v := &Verifier{}
	v.cache.SetCapacities(pipeline.Capacities{
		Load: cfg.LoadCache, SRC: cfg.SRCCache, Report: cfg.ReportCache,
	})
	if cfg.StoreDir != "" {
		if d, err := store.OpenDisk(cfg.StoreDir, cfg.StoreBudget); err == nil {
			v.store = d
		}
	}
	return v
}

// Store returns the persistent tier, or nil when none is attached (no
// StoreDir configured, or the directory could not be opened).
func (v *Verifier) Store() store.Tier { return v.store }

// RunInfo describes how a VerifyText call was answered: the request
// digest, whether the whole report came from cache, and the per-stage
// provenance of whatever did run.
type RunInfo struct {
	// Digest is the report-cache key (see ReportDigest).
	Digest string `json:"digest"`
	// CacheHit is true when the report was served whole from the report
	// cache; Stages then holds the single report-stage entry.
	CacheHit bool `json:"cache_hit"`
	// Baseline is the registered baseline the run anchored on ("" for
	// anonymous verifications).
	Baseline string `json:"baseline,omitempty"`
	// Stages lists per-stage provenance in pipeline order.
	Stages []StageInfo `json:"stages"`
}

// BDDProfile is one live BDD manager's structural snapshot, named by the
// surface holding it: a registered baseline or the SRC stage cache.
type BDDProfile struct {
	// Origin is "baseline" (a registered, pinned converged state) or
	// "src-cache" (an anonymous cached SRC artifact).
	Origin string `json:"origin"`
	// Name is the baseline name, or the artifact digest for cache entries.
	Name    string      `json:"name"`
	Profile bdd.Profile `json:"profile"`
}

// BDDProfiles snapshots every live BDD manager the verifier holds —
// registered baselines first (name order), then anonymous SRC cache
// entries (recency order). A delta's artifact shares its baseline's
// manager, so shared managers are profiled once, under the first name
// encountered. Each snapshot takes that artifact's run lock, briefly
// serializing against verifications sharing the manager — this is the
// on-demand path behind GET /debug/bdd, not engine machinery.
func (v *Verifier) BDDProfiles() []BDDProfile {
	out := []BDDProfile{}
	seen := map[*bdd.Manager]bool{}
	add := func(origin, name string, a *pipeline.SRCArtifact) {
		if !seen[a.Eng.Space.M] {
			seen[a.Eng.Space.M] = true
			out = append(out, BDDProfile{Origin: origin, Name: name, Profile: a.BDDProfile()})
		}
	}
	for _, b := range v.baselines.List() {
		add("baseline", b.Name, b.SRC)
	}
	for _, a := range v.cache.SRC.Values() {
		add("src-cache", a.Digest, a)
	}
	return out
}

// ReportDigest is the digest identifying a verification request — the
// canonicalized configuration text plus the normalized options — used as
// the report-cache key by Verifier and the service.
func ReportDigest(configText string, opts Options) string {
	return pipeline.ReportKey(configText, opts.CacheKey())
}

// VerifyText verifies a configuration text, reusing cached stage
// artifacts where the request's stage keys match earlier runs. It names no
// baseline, so an EPVP fixed point it finds neither cached nor stored is
// computed cold. The returned RunInfo records the provenance of every stage.
func (v *Verifier) VerifyText(ctx context.Context, configText string, opts Options) (*Report, *RunInfo, error) {
	return v.VerifyTextFrom(ctx, "", configText, opts)
}

// run is the one verification driver: normalize the options, answer from
// the report cache if it can, else the staged pipeline (which rejects a
// request it cannot run before any stage computes) and the assembled report
// — cached under the request digest and traced. What differs between entry
// points is who produced the Load artifact: the Load cache, whose provenance
// entry is loaded, for configuration text; expresso.Load for a Network.
// baseline names the registered warm anchor ("" for anonymous requests).
// artifacts, when set, is handed the run's stage artifacts while the run
// still holds them (baseline registration becomes a holder too): a whole
// cached report is then not an answer, and its error fails the run.
func (v *Verifier) run(ctx context.Context, load *pipeline.LoadArtifact, loaded []StageInfo, baseline string, opts Options, artifacts func(*pipeline.Outcome) error) (*Report, *RunInfo, error) {
	opts.normalize()
	start := time.Now()
	info := &RunInfo{Baseline: baseline, Digest: load.ReportKey(opts.CacheKey())}
	if artifacts == nil {
		if rep, ok := v.cache.Report.Get(info.Digest); ok {
			info.CacheHit = true
			info.Stages = []StageInfo{{
				Stage: pipeline.StageReport, Status: StageHit,
				Key: info.Digest, Duration: time.Since(start),
			}}
			traceRun(opts, info, rep, nil)
			return rep, info, nil
		}
	}

	runner := &pipeline.Runner{Cache: &v.cache.SRC, Store: v.store, Baselines: &v.baselines}
	out, err := runner.Run(ctx, &pipeline.Request{
		Load:       load,
		Mode:       opts.Mode,
		Properties: opts.Properties,
		BTE:        opts.BTE,
		Workers:    opts.Workers,
		Baseline:   baseline,
		Trace:      opts.Trace,
	})
	if err != nil {
		return nil, nil, err
	}
	defer out.Release()

	rep := assembleReport(load.Net.Statistics(), out)
	rep.Timing.Load = load.Elapsed
	v.cache.Report.Add(info.Digest, rep)
	info.Stages = append(append(loaded, out.Stages...), StageInfo{
		Stage: pipeline.StageReport, Status: StageMiss, Key: info.Digest,
	})
	traceRun(opts, info, rep, out.SRC)
	if artifacts != nil {
		err = artifacts(out)
	}
	return rep, info, err
}

// runText is run on configuration text, whose Load stage resolves through
// its cache.
func (v *Verifier) runText(ctx context.Context, configText, baseline string, opts Options, artifacts func(*pipeline.Outcome) error) (*Report, *RunInfo, error) {
	start := time.Now()
	info := StageInfo{Stage: pipeline.StageLoad, Status: StageHit, Key: pipeline.ConfigDigest(configText)}
	load, ok := v.cache.Load.Get(info.Key)
	if !ok {
		var err error
		if load, err = pipeline.Load(configText); err != nil {
			return nil, nil, err
		}
		v.cache.Load.Add(info.Key, load)
		info.Status = StageMiss
	}
	info.Duration = time.Since(start)
	return v.run(ctx, load, []StageInfo{info}, baseline, opts, artifacts)
}

// CachedReport answers from the report cache alone (no stages run). A hit
// is counted; a miss is left to the verification the caller goes on to run,
// which looks the digest up again. The service's submit path uses it to
// decide between answering immediately and enqueueing a job.
func (v *Verifier) CachedReport(digest string) (*Report, bool) {
	return v.cache.Report.Probe(digest)
}

// CachedReports reports the number of reports currently cached.
func (v *Verifier) CachedReports() int { return v.cache.Report.Len() }

// CacheStats snapshots every stage's hit/miss/entry counters in pipeline
// order (the service exports them on /metrics).
func (v *Verifier) CacheStats() []StageCacheStat {
	var held []*pipeline.SRCArtifact
	for _, b := range v.baselines.List() {
		held = append(held, b.SRC)
	}
	return v.cache.Stats(held...)
}

// StoreTraffic snapshots the persistent tier's counters; ok is false when
// no store is attached (the service omits the metric families then).
func (v *Verifier) StoreTraffic() (StoreStats, bool) {
	if v.store == nil {
		return StoreStats{}, false
	}
	return v.store.Stats(), true
}

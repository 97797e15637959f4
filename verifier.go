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

// VerifierConfig sizes a Verifier's report tier and attaches its store.
type VerifierConfig struct {
	// ReportCache is the number of assembled reports kept, keyed by
	// ReportDigest: 0 means 128, negative keeps none. It is the one memory
	// tier; a converged fixed point stays resident only while a registered
	// baseline (RegisterBaseline) or an in-flight request holds it.
	ReportCache int
	// StoreDir, when non-empty, enables the persistent artifact store: an
	// on-disk content-addressed tier under memory. SRC, SPF, and
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
//   - A registered baseline re-verified as it is, with another property
//     set, reuses its converged SRC artifact and re-runs only the analysis
//     stages (adding a forwarding property also reuses its SPF artifact if
//     one exists). An anonymous text re-verified that way recomputes its
//     fixed point, or reads it from the store: registering the text is the
//     named way to keep one.
//   - A config delta against a registered baseline (RegisterBaseline, then
//     VerifyDelta or VerifyTextFrom) warm-starts the EPVP fixed point from
//     the baseline's converged state, recomputing only the dirty closure —
//     and produces a report byte-identical (up to timings, heap, and
//     iteration counts) to a cold run. A run that names no baseline
//     computes its fixed point cold, in a BDD manager of its own.
//
// A Verifier is safe for concurrent use; computation on shared symbolic
// state is serialized per BDD manager. The zero Verifier is the cold one:
// it keeps no report and has no store, so every run that names no baseline
// computes every stage.
type Verifier struct {
	cache     pipeline.StageCache[*Report]
	store     store.Tier
	baselines pipeline.BaselineRegistry
}

// NewVerifier builds a Verifier with the configured report-tier capacity
// and, when cfg.StoreDir is set, the persistent store tier.
func NewVerifier(cfg VerifierConfig) *Verifier {
	v := &Verifier{}
	v.cache.SetReportCap(cfg.ReportCache)
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

// BDDProfile is the structural snapshot of a registered baseline's BDD
// manager.
type BDDProfile struct {
	// Name is the baseline's name.
	Name    string      `json:"name"`
	Profile bdd.Profile `json:"profile"`
}

// BDDProfiles snapshots the BDD manager of every registered baseline, in
// name order: the managers the verifier keeps between runs (a delta computes
// in its baseline's manager). Each snapshot takes the baseline's run lock,
// briefly serializing against verifications sharing the manager — this is
// the on-demand path behind GET /debug/bdd, not engine machinery.
func (v *Verifier) BDDProfiles() []BDDProfile {
	out := []BDDProfile{}
	for _, b := range v.baselines.List() {
		out = append(out, BDDProfile{Name: b.Name, Profile: b.SRC.BDDProfile()})
	}
	return out
}

// ReportDigest is the digest identifying a verification request — the
// configuration's canonical digest plus the normalized options — used as
// the report-cache key by Verifier and the service.
func ReportDigest(configText string, opts Options) string {
	return pipeline.ReportKey(configText, opts.CacheKey())
}

// VerifyText verifies a configuration text: a cached report answers it
// whole, and otherwise the stages run, reading the store where it holds
// their keys. It names no baseline, so an EPVP fixed point the store does not
// hold is computed cold. The returned RunInfo records the provenance of every stage.
func (v *Verifier) VerifyText(ctx context.Context, configText string, opts Options) (*Report, *RunInfo, error) {
	return v.VerifyTextFrom(ctx, "", configText, opts)
}

// run is the one verification driver below the report tier: normalize the
// options, then the staged pipeline (which rejects a request it cannot run
// before any stage computes) and the assembled report — filed under the
// request digest and traced. What differs between entry points is who
// produced the Load artifact, whose provenance entry is loaded: runText, for
// configuration text; expresso.Load for a Network. baseline names the
// registered warm anchor ("" for anonymous requests). artifacts, when set,
// is handed the run's stage artifacts while the run still holds them
// (baseline registration becomes a holder too), and its error fails the run.
func (v *Verifier) run(ctx context.Context, load *pipeline.LoadArtifact, loaded []StageInfo, baseline string, opts Options, artifacts func(*pipeline.Outcome) error) (*Report, *RunInfo, error) {
	opts.normalize()
	info := &RunInfo{Baseline: baseline, Digest: load.ReportKey(opts.CacheKey())}
	runner := &pipeline.Runner{Counts: &v.cache.Counters, Store: v.store, Baselines: &v.baselines}
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

// runText is run on configuration text, canonicalized once: the report key
// and the Load stage both come from that one pass. A request that is not a
// registration is looked up in the report tier first, before anything is
// parsed; a registration must run, because it holds the run's artifacts,
// which a cached report does not have.
func (v *Verifier) runText(ctx context.Context, configText, baseline string, opts Options, artifacts func(*pipeline.Outcome) error) (*Report, *RunInfo, error) {
	opts.normalize()
	start := time.Now()
	src := pipeline.NewSource(configText)
	if artifacts == nil {
		digest := src.ReportKey(opts.CacheKey())
		if rep, ok := v.cache.Report.Get(digest); ok {
			info := &RunInfo{Baseline: baseline, Digest: digest, CacheHit: true, Stages: []StageInfo{{
				Stage: pipeline.StageReport, Status: StageHit,
				Key: digest, Duration: time.Since(start),
			}}}
			traceRun(opts, info, rep, nil)
			return rep, info, nil
		}
	}
	load, err := v.load(src, baseline)
	if err != nil {
		return nil, nil, err
	}
	info := StageInfo{Stage: pipeline.StageLoad, Status: StageMiss, Key: load.Digest, Duration: time.Since(start)}
	return v.run(ctx, load, []StageInfo{info}, baseline, opts, artifacts)
}

// load runs the Load stage on src; a delta against a registered baseline
// parses only the router sections its text does not share with the
// baseline's.
func (v *Verifier) load(src pipeline.Source, baseline string) (*pipeline.LoadArtifact, error) {
	var base *pipeline.Baseline
	if baseline != "" {
		base, _ = v.baselines.Get(baseline)
	}
	return pipeline.LoadSource(src, base)
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

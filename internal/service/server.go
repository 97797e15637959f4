package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	rtdebug "runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/expresso-verify/expresso"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/telemetry"
)

// Config tunes the verification server. The zero value is usable: every
// field falls back to the documented default.
type Config struct {
	// Workers is the size of the worker pool (default: GOMAXPROCS).
	Workers int
	// EngineWorkers is the number of goroutines each verification job's
	// symbolic engine may use (expresso.Options.Workers): 0 = GOMAXPROCS,
	// 1 (the default) = sequential. The pool already runs Workers jobs
	// concurrently, so raise this only when jobs are scarcer than cores —
	// total engine goroutines approach Workers x EngineWorkers.
	EngineWorkers int
	// QueueDepth bounds the FIFO job queue; submissions beyond it are
	// rejected with 503 (default: 64).
	QueueDepth int
	// CacheSize is the LRU report-cache capacity (default: 128; negative
	// disables all stage caches, making every run cold).
	CacheSize int
	// StoreDir, when non-empty, enables the persistent artifact store: a
	// content-addressed on-disk tier shared across restarts and replicas
	// (see expresso.VerifierConfig.StoreDir). Store traffic appears on
	// /metrics as the expresso_store_* families and in job stage
	// provenance as status "disk".
	StoreDir string
	// StoreBudget bounds the store directory in bytes (0 = unlimited).
	StoreBudget int64
	// JobTimeout is the default per-job deadline, measured from the
	// moment a worker picks the job up (default: 5m; negative disables).
	JobTimeout time.Duration
	// MaxBodyBytes bounds the request body (default: 16 MiB).
	MaxBodyBytes int64
	// MaxJobs bounds the in-memory job registry; the oldest finished
	// jobs are evicted beyond it (default: 1024).
	MaxJobs int
	// Logger receives structured request/job lifecycle records
	// (default: slog.Default()).
	Logger *slog.Logger
	// Trace, when true, records a run trace for every job and serves it
	// on GET /v1/jobs/{id}/trace. Off by default: tracing snapshots BDD
	// and EPVP counters every round, which costs a few percent.
	Trace bool
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.EngineWorkers <= 0 {
		// Sequential per job by default (the pool already saturates the
		// cores); EXPRESSO_WORKERS overrides so CI can force the parallel
		// engine under the race detector through the service path too.
		c.EngineWorkers = 1
		if n := telemetry.WorkersFromEnv(); n > 0 {
			c.EngineWorkers = n
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
}

// ErrQueueFull is returned by Submit when the FIFO queue is at capacity.
var ErrQueueFull = errors.New("service: job queue is full")

// ErrDraining is returned by Submit after Drain has begun.
var ErrDraining = errors.New("service: server is draining")

// ErrUnknownBaseline is returned by SubmitDelta when the named baseline is
// not registered.
var ErrUnknownBaseline = errors.New("service: unknown baseline")

// Server is the verification daemon: a bounded worker pool consuming a
// FIFO job queue, fronted by a staged Verifier whose stage-granular
// caches (load, SRC, analysis, SPF, report) let repeated and incremental
// submissions reuse earlier work.
type Server struct {
	cfg      Config
	log      *slog.Logger
	Metrics  *Metrics
	verifier *expresso.Verifier

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	draining bool
	queue    chan *Job
	jobs     map[string]*Job
	jobOrder []string // creation order, for registry eviction
	// pending tracks, per coalesce key, the newest still-queued delta job
	// — the one a superseding submission must retire. Entries are removed
	// when a worker claims the job (clearPending); a stale terminal entry
	// is harmless and is overwritten by the next submission on its key.
	pending map[string]*Job

	wg     sync.WaitGroup
	nextID atomic.Int64

	// run performs one verification — of a delta job's patched text
	// against its named baseline, anonymously when baseline is ""; tests
	// may substitute it. The RunInfo (nil from substitutes) carries
	// per-stage cache provenance.
	run func(ctx context.Context, baseline, configText string, opts expresso.Options) (*expresso.Report, *expresso.RunInfo, error)
}

// New builds a server. Call Start to launch the worker pool.
func New(cfg Config) *Server {
	cfg.applyDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	vcfg := expresso.VerifierConfig{ReportCache: cfg.CacheSize}
	if cfg.CacheSize < 0 {
		// Caching disabled entirely: no tier may retain artifacts.
		vcfg = expresso.VerifierConfig{LoadCache: -1, SRCCache: -1, ReportCache: -1}
	}
	vcfg.StoreDir = cfg.StoreDir
	vcfg.StoreBudget = cfg.StoreBudget
	s := &Server{
		cfg:        cfg,
		log:        cfg.Logger,
		Metrics:    &Metrics{},
		verifier:   expresso.NewVerifier(vcfg),
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *Job, cfg.QueueDepth),
		jobs:       map[string]*Job{},
		pending:    map[string]*Job{},
	}
	s.run = s.verifier.VerifyTextFrom
	return s
}

// Verifier exposes the server's staged verifier (baseline registration
// goes through it).
func (s *Server) Verifier() *expresso.Verifier { return s.verifier }

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for job := range s.queue {
				s.runJob(job)
			}
		}()
	}
}

// Drain stops accepting submissions, lets queued and running jobs finish,
// and waits for the pool to exit. If ctx expires first, in-flight jobs are
// cancelled and the remaining wait continues until they unwind.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
		s.log.Info("service draining", "queued", len(s.queue))
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		s.baseCancel() // force-cancel in-flight jobs, then wait them out
		<-finished
		return ctx.Err()
	}
}

// Submit admits a verification request: it answers from the cache when the
// digest matches a completed run, otherwise enqueues a job for the worker
// pool. The returned bool reports a cache hit. timeout <= 0 uses the
// server default.
func (s *Server) Submit(configText string, opts expresso.Options, timeout time.Duration) (*Job, bool, error) {
	return s.submit(configText, "", opts, timeout)
}

// SubmitDelta admits a delta verification: the patch is applied to the
// named baseline's registered text and the result is verified anchored on
// the baseline's pinned converged state. Delta jobs coalesce — admitting
// one supersedes any still-queued job on the same (baseline, options)
// target, because a newer delta against the same base makes the older
// snapshot's answer obsolete before it is even computed.
func (s *Server) SubmitDelta(baseline string, patch expresso.Patch, opts expresso.Options, timeout time.Duration) (*Job, bool, error) {
	base, ok := s.verifier.BaselineText(baseline)
	if !ok {
		return nil, false, fmt.Errorf("%w: %q", ErrUnknownBaseline, baseline)
	}
	configText, err := expresso.ApplyPatch(base, patch)
	if err != nil {
		return nil, false, err
	}
	return s.submit(configText, baseline, opts, timeout)
}

func (s *Server) submit(configText, baseline string, opts expresso.Options, timeout time.Duration) (*Job, bool, error) {
	digest := Digest(configText, opts)
	now := time.Now()
	job := &Job{
		ID:         fmt.Sprintf("j-%06d", s.nextID.Add(1)),
		Digest:     digest,
		configText: configText,
		opts:       opts,
		timeout:    timeout,
		baseline:   baseline,
		done:       make(chan struct{}),
		state:      JobQueued,
		created:    now,
	}
	if baseline != "" {
		job.coalesceKey = baseline + "\x00" + opts.CacheKey()
	}
	if job.timeout <= 0 {
		job.timeout = s.cfg.JobTimeout
	}
	job.ctx, job.cancel = context.WithCancel(s.baseCtx)

	if rep, ok := s.verifier.CachedReport(digest); ok {
		s.Metrics.JobsAccepted.Add(1)
		s.Metrics.CacheHits.Add(1)
		job.cacheHit = true
		job.stages = []expresso.StageInfo{{
			Stage: "report", Status: expresso.StageHit, Key: digest,
		}}
		job.finish(JobDone, rep, "", now)
		s.register(job)
		// Even an answered-from-cache delta supersedes an older queued
		// delta on its target: this job IS the newer state of the base.
		s.supersedePending(job, now)
		s.log.Info("job served from cache", "job", job.ID, "digest", digest)
		return job, true, nil
	}
	s.Metrics.CacheMisses.Add(1)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.Metrics.JobsRejected.Add(1)
		s.log.Warn("job rejected", "digest", digest, "reason", "draining")
		return nil, false, ErrDraining
	}
	var prev *Job
	select {
	case s.queue <- job:
		if job.coalesceKey != "" {
			prev = s.pending[job.coalesceKey]
			s.pending[job.coalesceKey] = job
		}
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		s.Metrics.JobsRejected.Add(1)
		s.log.Warn("job rejected", "digest", digest, "reason", "queue full")
		return nil, false, ErrQueueFull
	}
	if prev != nil && prev.trySupersede(job.ID, now) {
		s.Metrics.JobsCoalesced.Add(1)
		s.logSuperseded(prev, job.ID, now)
	}
	s.Metrics.JobsAccepted.Add(1)
	s.register(job)
	s.log.Info("job queued", "job", job.ID, "digest", digest, "timeout", job.timeout)
	return job, false, nil
}

// supersedePending retires the queued job on job's coalesce key, if any.
func (s *Server) supersedePending(job *Job, now time.Time) {
	if job.coalesceKey == "" {
		return
	}
	s.mu.Lock()
	prev := s.pending[job.coalesceKey]
	s.mu.Unlock()
	if prev != nil && prev != job && prev.trySupersede(job.ID, now) {
		s.Metrics.JobsCoalesced.Add(1)
		s.clearPending(prev)
		s.logSuperseded(prev, job.ID, now)
	}
}

// logSuperseded records the coalescing queue's lifecycle event: the
// queued delta job that was retired, the winning job that replaced it,
// and how long the loser sat in the queue before being coalesced away.
func (s *Server) logSuperseded(prev *Job, winnerID string, now time.Time) {
	s.log.Info("job superseded", "job", prev.ID, "by", winnerID,
		"baseline", prev.baseline, "queued_for", now.Sub(prev.created))
}

// clearPending drops the job from the pending table if it is still the
// entry for its coalesce key (identity-guarded: a newer job may already
// have replaced it).
func (s *Server) clearPending(job *Job) {
	if job.coalesceKey == "" {
		return
	}
	s.mu.Lock()
	if s.pending[job.coalesceKey] == job {
		delete(s.pending, job.coalesceKey)
	}
	s.mu.Unlock()
}

// register tracks the job for /v1/jobs lookups, evicting the oldest
// finished jobs beyond the registry cap.
func (s *Server) register(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[job.ID] = job
	s.jobOrder = append(s.jobOrder, job.ID)
	if len(s.jobOrder) <= s.cfg.MaxJobs {
		return
	}
	kept := s.jobOrder[:0]
	excess := len(s.jobOrder) - s.cfg.MaxJobs
	for _, id := range s.jobOrder {
		if excess > 0 && s.jobs[id].State().Terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.jobOrder = kept
}

// Job returns a tracked job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Workers reports the resolved worker-pool size.
func (s *Server) Workers() int { return s.cfg.Workers }

// QueueDepth reports the number of queued jobs (a point-in-time gauge).
func (s *Server) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return 0
	}
	return len(s.queue)
}

// BaselineQueueStat is one baseline's share of the in-flight work.
type BaselineQueueStat struct {
	Queued  int `json:"queued"`
	Running int `json:"running"`
}

// QueueStats is the GET /debug/queue body and the source of the /metrics
// queue gauges: a point-in-time view of the FIFO queue and the worker
// pool, broken down by delta-job baseline ("" = anonymous jobs).
type QueueStats struct {
	// Depth is the FIFO queue population (0 while draining).
	Depth int `json:"depth"`
	// Queued/Running count jobs by lifecycle state across the tracked
	// registry; OldestJob and OldestSeconds identify the queued job that
	// has waited longest.
	Queued        int     `json:"queued"`
	Running       int     `json:"running"`
	OldestJob     string  `json:"oldest_job,omitempty"`
	OldestSeconds float64 `json:"oldest_seconds"`
	// PerBaseline splits the queued/running counts by target baseline;
	// anonymous verification jobs appear under "".
	PerBaseline map[string]BaselineQueueStat `json:"per_baseline,omitempty"`
}

// QueueStats snapshots the queue for /debug/queue and the SLO gauges.
func (s *Server) QueueStats() QueueStats {
	s.mu.Lock()
	qs := QueueStats{Depth: len(s.queue)}
	if s.draining {
		qs.Depth = 0
	}
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	now := time.Now()
	var oldest time.Time
	for _, j := range jobs {
		st := j.State()
		if st != JobQueued && st != JobRunning {
			continue
		}
		if qs.PerBaseline == nil {
			qs.PerBaseline = map[string]BaselineQueueStat{}
		}
		bs := qs.PerBaseline[j.baseline]
		if st == JobQueued {
			qs.Queued++
			bs.Queued++
			if oldest.IsZero() || j.created.Before(oldest) {
				oldest = j.created
				qs.OldestJob = j.ID
			}
		} else {
			qs.Running++
			bs.Running++
		}
		qs.PerBaseline[j.baseline] = bs
	}
	if !oldest.IsZero() {
		qs.OldestSeconds = now.Sub(oldest).Seconds()
	}
	return qs
}

func (s *Server) runJob(job *Job) {
	// This worker owns the job now; it is no longer a supersede target.
	s.clearPending(job)
	if job.State() == JobSuperseded {
		// Retired by a newer delta while queued: already terminal, already
		// counted (JobsCoalesced), nothing to run.
		s.log.Info("job skipped (superseded)", "job", job.ID, "by", job.SupersededBy())
		return
	}
	if job.ctx.Err() != nil { // cancelled while queued
		s.Metrics.JobsCancelled.Add(1)
		s.log.Info("job cancelled while queued", "job", job.ID)
		job.finish(JobCancelled, nil, job.ctx.Err().Error(), time.Now())
		return
	}
	start := time.Now()
	if !job.setRunning(start) {
		// Lost the claim race to a supersede between the checks above.
		s.log.Info("job skipped (superseded)", "job", job.ID, "by", job.SupersededBy())
		return
	}
	s.Metrics.ObserveQueueWait(job.baseline, start.Sub(job.created))
	s.log.Info("job started", "job", job.ID, "digest", job.Digest,
		"queue_wait", start.Sub(job.created))
	ctx := job.ctx
	if job.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, job.timeout)
		defer cancel()
	}
	s.Metrics.EngineRuns.Add(1)
	opts := job.opts
	if opts.Workers == 0 {
		opts.Workers = s.cfg.EngineWorkers
	}
	if s.cfg.Trace {
		opts.Trace = expresso.NewTracer()
	}
	rep, info, err := s.verify(ctx, job, opts)
	now := time.Now()
	switch {
	case err == nil:
		if info != nil {
			job.setStages(info.Stages)
		}
		if opts.Trace != nil {
			job.setTrace(opts.Trace.Finish())
		}
		s.Metrics.JobsCompleted.Add(1)
		s.Metrics.ObserveTiming(rep.Timing)
		s.Metrics.ObserveVerdict(job.baseline, now.Sub(job.created))
		job.finish(JobDone, rep, "", now)
		s.log.Info("job done", "job", job.ID, "state", JobDone,
			"duration", now.Sub(start), "verdict", now.Sub(job.created),
			"iterations", rep.Iterations)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.Metrics.JobsCancelled.Add(1)
		job.finish(JobCancelled, nil, err.Error(), now)
		s.log.Info("job cancelled", "job", job.ID, "state", JobCancelled,
			"duration", now.Sub(start), "error", err.Error())
	default:
		s.Metrics.JobsFailed.Add(1)
		job.finish(JobFailed, nil, err.Error(), now)
		s.log.Warn("job failed", "job", job.ID, "state", JobFailed,
			"duration", now.Sub(start), "error", err.Error())
	}
}

// verify runs the job's verification. A panic under it — an engine bug, a
// corrupted shared BDD manager — is reported as the job's error, stack to
// the log: one poisoned job fails alone instead of taking its worker, and
// with it the process and every other queued job, down.
func (s *Server) verify(ctx context.Context, job *Job, opts expresso.Options) (rep *expresso.Report, info *expresso.RunInfo, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.Metrics.JobPanics.Add(1)
			s.log.Error("job panicked", "job", job.ID, "panic", p, "stack", string(rtdebug.Stack()))
			rep, info, err = nil, nil, fmt.Errorf("verification panicked: %v", p)
		}
	}()
	return s.run(ctx, job.baseline, job.configText, opts)
}

// VerifyRequest is the POST /v1/verify body.
type VerifyRequest struct {
	// Config is the multi-router configuration text (required).
	Config string `json:"config"`
	// Properties selects checks by name (leak, hijack, traffic,
	// blackhole, loop, bte); empty means the default §7.1 set.
	Properties []string `json:"properties,omitempty"`
	// Mode is "" or "full" for full Expresso, "minus" for Expresso-.
	Mode string `json:"mode,omitempty"`
	// BTE is the community for the bte property, e.g. "11537:888".
	BTE string `json:"bte,omitempty"`
	// TimeoutMS overrides the server's per-job deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Wait blocks the request until the job finishes and returns the
	// final status (cancelling the job if the client disconnects).
	Wait bool `json:"wait,omitempty"`
}

// Options translates the request into verification options.
func (r *VerifyRequest) Options() (expresso.Options, error) {
	var opts expresso.Options
	switch r.Mode {
	case "", "full":
	case "minus":
		opts.Mode = expresso.ExpressoMinusMode()
	default:
		return opts, fmt.Errorf("unknown mode %q (want \"full\" or \"minus\")", r.Mode)
	}
	for _, name := range r.Properties {
		k, err := expresso.ParseProperty(name)
		if err != nil {
			return opts, err
		}
		opts.Properties = append(opts.Properties, k)
	}
	if r.BTE != "" {
		c, err := route.ParseCommunity(r.BTE)
		if err != nil {
			return opts, err
		}
		opts.BTE = c
	}
	return opts, nil
}

// BaselineRequest is the POST /v1/baselines body: a configuration to
// verify synchronously and register as the named delta base.
type BaselineRequest struct {
	// Name is the registry key deltas will reference (required).
	Name string `json:"name"`
	// Config is the multi-router configuration text (required).
	Config     string   `json:"config"`
	Properties []string `json:"properties,omitempty"`
	Mode       string   `json:"mode,omitempty"`
	BTE        string   `json:"bte,omitempty"`
}

// Options translates the registration's verification options.
func (r *BaselineRequest) Options() (expresso.Options, error) {
	vr := VerifyRequest{Properties: r.Properties, Mode: r.Mode, BTE: r.BTE}
	return vr.Options()
}

// BaselineStatus is the JSON view of a registered baseline.
type BaselineStatus struct {
	*expresso.BaselineInfo
	// Report is the registration run's report (only on POST).
	Report *expresso.Report `json:"report,omitempty"`
}

// DeltaRequest is the POST /v1/jobs body: a patch against a named
// baseline plus the usual verification options.
type DeltaRequest struct {
	// Baseline names the registered base (required).
	Baseline string `json:"baseline"`
	// Patch is the config-tree delta to apply to the baseline's text. The
	// empty patch re-verifies the baseline as-is.
	Patch      expresso.Patch `json:"patch"`
	Properties []string       `json:"properties,omitempty"`
	Mode       string         `json:"mode,omitempty"`
	BTE        string         `json:"bte,omitempty"`
	TimeoutMS  int64          `json:"timeout_ms,omitempty"`
	Wait       bool           `json:"wait,omitempty"`
}

// Options translates the delta's verification options.
func (r *DeltaRequest) Options() (expresso.Options, error) {
	vr := VerifyRequest{Properties: r.Properties, Mode: r.Mode, BTE: r.BTE}
	return vr.Options()
}

// Handler returns the HTTP API:
//
//	POST   /v1/verify           submit a verification (cache-aware)
//	POST   /v1/baselines        register a named baseline (synchronous)
//	GET    /v1/baselines        list registered baselines
//	GET    /v1/baselines/{name} baseline detail
//	DELETE /v1/baselines/{name} unregister a baseline
//	POST   /v1/jobs             submit a delta job {baseline, patch}
//	GET    /v1/jobs/{id}        job status and report
//	GET    /v1/jobs/{id}/trace  run trace (requires Config.Trace)
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /healthz             liveness + build info (503 while draining)
//	GET    /metrics             Prometheus-style counters and histograms
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/verify", s.handleVerify)
	mux.HandleFunc("POST /v1/baselines", s.handleBaselineCreate)
	mux.HandleFunc("GET /v1/baselines", s.handleBaselineList)
	mux.HandleFunc("GET /v1/baselines/{name}", s.handleBaselineGet)
	mux.HandleFunc("DELETE /v1/baselines/{name}", s.handleBaselineDelete)
	mux.HandleFunc("POST /v1/jobs", s.handleDelta)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// setRetryAfter stamps a 503's Retry-After from the current backlog: one
// second plus the queued-jobs-per-worker ratio, capped at 30 — a rough
// "when might a slot open" rather than a fixed constant.
func (s *Server) setRetryAfter(w http.ResponseWriter) {
	wait := 1 + s.QueueDepth()/s.cfg.Workers
	if wait > 30 {
		wait = 30
	}
	w.Header().Set("Retry-After", strconv.Itoa(wait))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req VerifyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{"bad request body: " + err.Error()})
		return
	}
	if req.Config == "" {
		writeJSON(w, http.StatusBadRequest, apiError{"missing \"config\""})
		return
	}
	opts, err := req.Options()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	job, hit, err := s.Submit(req.Config, opts, time.Duration(req.TimeoutMS)*time.Millisecond)
	s.respondSubmitted(w, r, job, hit, req.Wait, err)
}

// respondSubmitted renders a Submit/SubmitDelta outcome: 503 with
// Retry-After on backpressure, 200 on a cache hit, 202 (or a blocking
// wait) otherwise.
func (s *Server) respondSubmitted(w http.ResponseWriter, r *http.Request, job *Job, hit, wait bool, err error) {
	switch {
	case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrDraining):
		s.setRetryAfter(w)
		writeJSON(w, http.StatusServiceUnavailable, apiError{err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, apiError{err.Error()})
		return
	}
	if hit {
		writeJSON(w, http.StatusOK, job.Status())
		return
	}
	if wait {
		select {
		case <-job.Done():
			writeJSON(w, http.StatusOK, job.Status())
		case <-r.Context().Done():
			// The client left; stop the symbolic simulation promptly.
			job.Cancel()
			<-job.Done()
		}
		return
	}
	writeJSON(w, http.StatusAccepted, job.Status())
}

func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req DeltaRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{"bad request body: " + err.Error()})
		return
	}
	if req.Baseline == "" {
		writeJSON(w, http.StatusBadRequest, apiError{"missing \"baseline\""})
		return
	}
	opts, err := req.Options()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	job, hit, err := s.SubmitDelta(req.Baseline, req.Patch, opts, time.Duration(req.TimeoutMS)*time.Millisecond)
	if errors.Is(err, ErrUnknownBaseline) {
		writeJSON(w, http.StatusNotFound, apiError{err.Error()})
		return
	}
	if err != nil && !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrDraining) {
		// A patch that does not apply is the client's error, not ours.
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	s.respondSubmitted(w, r, job, hit, req.Wait, err)
}

func (s *Server) handleBaselineCreate(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req BaselineRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{"bad request body: " + err.Error()})
		return
	}
	if req.Name == "" || req.Config == "" {
		writeJSON(w, http.StatusBadRequest, apiError{"missing \"name\" or \"config\""})
		return
	}
	opts, err := req.Options()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		s.setRetryAfter(w)
		writeJSON(w, http.StatusServiceUnavailable, apiError{ErrDraining.Error()})
		return
	}
	if _, ok := s.verifier.Baseline(req.Name); ok {
		writeJSON(w, http.StatusConflict, apiError{fmt.Sprintf("baseline %q already registered", req.Name)})
		return
	}
	if opts.Workers == 0 {
		opts.Workers = s.cfg.EngineWorkers
	}
	ctx := s.baseCtx
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	s.Metrics.EngineRuns.Add(1)
	rep, info, err := s.verifier.RegisterBaseline(ctx, req.Name, req.Config, opts)
	switch {
	case err == nil:
		s.Metrics.ObserveTiming(rep.Timing)
		s.log.Info("baseline registered", "baseline", req.Name, "digest", info.ConfigDigest)
		writeJSON(w, http.StatusCreated, BaselineStatus{BaselineInfo: info, Report: rep})
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, apiError{err.Error()})
	case errors.Is(err, expresso.ErrBaselineExists):
		writeJSON(w, http.StatusConflict, apiError{err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
	}
}

func (s *Server) handleBaselineList(w http.ResponseWriter, r *http.Request) {
	infos := s.verifier.Baselines()
	out := make([]BaselineStatus, len(infos))
	for i, info := range infos {
		out[i] = BaselineStatus{BaselineInfo: info}
	}
	writeJSON(w, http.StatusOK, map[string]any{"baselines": out})
}

func (s *Server) handleBaselineGet(w http.ResponseWriter, r *http.Request) {
	info, ok := s.verifier.Baseline(r.PathValue("name"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{"unknown baseline"})
		return
	}
	writeJSON(w, http.StatusOK, BaselineStatus{BaselineInfo: info})
}

func (s *Server) handleBaselineDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.verifier.RemoveBaseline(name) {
		writeJSON(w, http.StatusNotFound, apiError{"unknown baseline"})
		return
	}
	s.log.Info("baseline removed", "baseline", name)
	writeJSON(w, http.StatusOK, map[string]any{"deleted": name})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{"unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{"unknown job"})
		return
	}
	tr := job.Trace()
	if tr == nil {
		writeJSON(w, http.StatusNotFound, apiError{"no trace for job (server started without tracing, job not finished, or served from cache)"})
		return
	}
	writeJSON(w, http.StatusOK, tr)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{"unknown job"})
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusOK, job.Status())
}

// healthStatus is the GET /healthz body: liveness plus the build identity
// of the running binary, read once from the embedded module metadata.
type healthStatus struct {
	Status    string `json:"status"`
	Version   string `json:"version,omitempty"`
	Revision  string `json:"revision,omitempty"`
	GoVersion string `json:"go_version"`
}

var buildInfo = sync.OnceValue(func() healthStatus {
	st := healthStatus{Status: "ok", GoVersion: runtime.Version()}
	bi, ok := rtdebug.ReadBuildInfo()
	if !ok {
		return st
	}
	st.Version = bi.Main.Version
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" {
			st.Revision = kv.Value
		}
	}
	return st
})

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	st := buildInfo()
	if draining {
		st.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, st)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var storeStats *expresso.StoreStats
	if st, ok := s.verifier.StoreTraffic(); ok {
		storeStats = &st
	}
	qs := s.QueueStats()
	bi := buildInfo()
	s.Metrics.WriteText(w, Snapshot{
		QueueDepth:          qs.Depth,
		OldestQueuedSeconds: qs.OldestSeconds,
		Workers:             s.cfg.Workers,
		EngineWorkers:       s.cfg.EngineWorkers,
		Baselines:           s.verifier.BaselineCount(),
		CacheStats:          s.verifier.CacheStats(),
		StoreStats:          storeStats,
		Version:             bi.Version,
		Revision:            bi.Revision,
		GoVersion:           bi.GoVersion,
	})
}

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
	"github.com/expresso-verify/expresso/internal/telemetry"
)

// Config tunes the verification server. The zero value is usable: every
// field falls back to the documented default.
type Config struct {
	// Workers is the size of the worker pool (default: GOMAXPROCS).
	Workers int
	// EngineWorkers is the number of goroutines each verification job's
	// symbolic engine may use (expresso.Options.Workers): ≤ 0 = the default,
	// 1 (sequential), unless EXPRESSO_WORKERS says otherwise. The pool already runs Workers jobs
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

// errPanicked marks the error of a job whose verification panicked.
var errPanicked = errors.New("verification panicked")

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
	// against its named baseline, anonymously when baseline is "" — and
	// register one that leaves its converged state registered under name;
	// tests may substitute them. The RunInfo (nil from substitutes) carries
	// per-stage cache provenance.
	run      func(ctx context.Context, baseline, configText string, opts expresso.Options) (*expresso.Report, *expresso.RunInfo, error)
	register func(ctx context.Context, name, configText string, opts expresso.Options) (*expresso.Report, *expresso.BaselineInfo, error)
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
		Metrics:    newMetrics(),
		verifier:   expresso.NewVerifier(vcfg),
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *Job, cfg.QueueDepth),
		jobs:       map[string]*Job{},
		pending:    map[string]*Job{},
	}
	s.run, s.register = s.verifier.VerifyTextFrom, s.verifier.RegisterBaseline
	return s
}

// Verifier exposes the server's staged verifier.
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
	return s.submit(configText, "", "", opts, timeout)
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
	return s.submit(configText, baseline, "", opts, timeout)
}

// SubmitBaseline admits a registration: configText is verified like any
// other job — queued, bounded, cancellable — and its converged state is
// registered as the named baseline when the run succeeds. A registration
// must run, so the report cache does not answer it, and nothing supersedes
// it. A name already registered is refused here (expresso.ErrBaselineExists);
// of several racing for a free one, all but the first to run fail with it.
func (s *Server) SubmitBaseline(name, configText string, opts expresso.Options, timeout time.Duration) (*Job, error) {
	if _, ok := s.verifier.Baseline(name); ok {
		return nil, fmt.Errorf("service: baseline %q %w", name, expresso.ErrBaselineExists)
	}
	job, _, err := s.submit(configText, "", name, opts, timeout)
	return job, err
}

// submit is the one admission path: every engine run the daemon does is a
// job that went through it.
func (s *Server) submit(configText, baseline, register string, opts expresso.Options, timeout time.Duration) (*Job, bool, error) {
	digest := expresso.ReportDigest(configText, opts)
	now := time.Now()
	job := &Job{
		ID:         fmt.Sprintf("j-%06d", s.nextID.Add(1)),
		Digest:     digest,
		configText: configText,
		opts:       opts,
		timeout:    timeout,
		baseline:   baseline,
		register:   register,
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

	if register == "" {
		if rep, ok := s.verifier.CachedReport(digest); ok {
			s.Metrics.JobsAccepted.Add(1)
			s.Metrics.CacheHits.Add(1)
			job.cacheHit = true
			job.stages = []expresso.StageInfo{{
				Stage: "report", Status: expresso.StageHit, Key: digest,
			}}
			job.finish(JobDone, rep, nil, now)
			s.track(job)
			// Even an answered-from-cache delta supersedes an older queued
			// delta on its target: this job IS the newer state of the base.
			s.supersedePending(job, now)
			s.log.Info("job served from cache", "job", job.ID, "digest", digest)
			return job, true, nil
		}
		s.Metrics.CacheMisses.Add(1)
	}

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
	s.track(job)
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

// track files the job for /v1/jobs lookups, evicting the oldest finished
// jobs beyond the registry cap.
func (s *Server) track(job *Job) {
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

// BaselineQueueStat is one baseline's share of the in-flight work.
type BaselineQueueStat struct {
	Queued  int `json:"queued"`
	Running int `json:"running"`
}

// QueueStats is the GET /debug/queue body and the source of the /metrics
// queue gauges: a point-in-time view of the FIFO queue and the worker
// pool, broken down by delta-job baseline ("" = every other job).
type QueueStats struct {
	// Draining reports that Drain has begun: nothing more is admitted.
	Draining bool `json:"draining"`
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
	// verifications and registrations appear under "".
	PerBaseline map[string]BaselineQueueStat `json:"per_baseline,omitempty"`
}

// queueStats reads the queue and the job registry.
func (s *Server) queueStats() QueueStats {
	s.mu.Lock()
	qs := QueueStats{Draining: s.draining, Depth: len(s.queue)}
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
		job.finish(JobCancelled, nil, job.ctx.Err(), time.Now())
		return
	}
	start := time.Now()
	configText, ok := job.setRunning(start)
	if !ok {
		// Lost the claim race to a supersede between the checks above.
		s.log.Info("job skipped (superseded)", "job", job.ID, "by", job.SupersededBy())
		return
	}
	s.Metrics.observe(s.Metrics.queueWait, job.baseline, start.Sub(job.created))
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
	rep, info, err := s.verify(ctx, job, configText, opts)
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
		s.Metrics.observe(s.Metrics.verdict, job.baseline, now.Sub(job.created))
		job.finish(JobDone, rep, nil, now)
		s.log.Info("job done", "job", job.ID, "state", JobDone,
			"duration", now.Sub(start), "verdict", now.Sub(job.created),
			"iterations", rep.Iterations)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.Metrics.JobsCancelled.Add(1)
		job.finish(JobCancelled, nil, err, now)
		s.log.Info("job cancelled", "job", job.ID, "state", JobCancelled,
			"duration", now.Sub(start), "error", err.Error())
	default:
		s.Metrics.JobsFailed.Add(1)
		job.finish(JobFailed, nil, err, now)
		s.log.Warn("job failed", "job", job.ID, "state", JobFailed,
			"duration", now.Sub(start), "error", err.Error())
	}
}

// verify runs the job's verification — the one place the daemon enters the
// engine. A panic under it — an engine bug, a corrupted shared BDD manager —
// is reported as the job's error, stack to the log: one poisoned job fails
// alone instead of taking its worker, and with it the process and every
// other queued job, down.
func (s *Server) verify(ctx context.Context, job *Job, configText string, opts expresso.Options) (rep *expresso.Report, info *expresso.RunInfo, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.Metrics.JobPanics.Add(1)
			s.log.Error("job panicked", "job", job.ID, "panic", p, "stack", string(rtdebug.Stack()))
			rep, info, err = nil, nil, fmt.Errorf("%w: %v", errPanicked, p)
		}
	}()
	if job.register == "" {
		return s.run(ctx, job.baseline, configText, opts)
	}
	rep, reg, err := s.register(ctx, job.register, configText, opts)
	if err == nil {
		job.setRegistered(reg)
		s.log.Info("baseline registered", "job", job.ID, "baseline", reg.Name, "digest", reg.ConfigDigest)
	}
	return rep, nil, err
}

// JobRequest is the POST /v1/jobs body: a configuration to verify, or a
// patch against a named baseline — exactly one of the two — plus the
// verification options.
type JobRequest struct {
	// Config is the multi-router configuration text of a verification.
	Config string `json:"config,omitempty"`
	// Baseline names the registered base of a delta job, and Patch is the
	// config-tree delta to apply to its text. The empty patch re-verifies
	// the baseline as-is.
	Baseline string         `json:"baseline,omitempty"`
	Patch    expresso.Patch `json:"patch"`
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

// DeltaRequest is JobRequest under the name it had when /v1/jobs took
// deltas only.
type DeltaRequest = JobRequest

// BaselineRequest is the POST /v1/baselines body: a configuration to
// verify and register as the named delta base. The request waits for its
// registration job.
type BaselineRequest struct {
	// Name is the registry key deltas will reference (required).
	Name string `json:"name"`
	// Config is the multi-router configuration text (required).
	Config     string   `json:"config"`
	Properties []string `json:"properties,omitempty"`
	Mode       string   `json:"mode,omitempty"`
	BTE        string   `json:"bte,omitempty"`
}

// BaselineStatus is the JSON view of a registered baseline.
type BaselineStatus struct {
	*expresso.BaselineInfo
	// Report is the registration run's report, and Job the ID of the job
	// that ran it (only on POST).
	Report *expresso.Report `json:"report,omitempty"`
	Job    string           `json:"job,omitempty"`
}

// Handler returns the HTTP API:
//
//	POST   /v1/jobs             submit a job: {config} or {baseline, patch}
//	GET    /v1/jobs/{id}        job status and report
//	GET    /v1/jobs/{id}/trace  run trace (requires Config.Trace)
//	DELETE /v1/jobs/{id}        cancel a job
//	POST   /v1/baselines        register a named baseline (a job, waited for)
//	GET    /v1/baselines        list registered baselines
//	GET    /v1/baselines/{name} baseline detail
//	DELETE /v1/baselines/{name} unregister a baseline
//	GET    /healthz             liveness + build info (503 while draining)
//	GET    /metrics             Prometheus-style counters and histograms
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("POST /v1/baselines", s.handleBaselineCreate)
	mux.HandleFunc("GET /v1/baselines", s.handleBaselineList)
	mux.HandleFunc("GET /v1/baselines/{name}", s.handleBaselineGet)
	mux.HandleFunc("DELETE /v1/baselines/{name}", s.handleBaselineDelete)
	mux.HandleFunc("GET /healthz", s.serve(false, (*Snapshot).health))
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.Snapshot(false).WriteMetrics(w)
	})
	return mux
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

// decode reads a JSON request body into req; it answers 400 itself and
// reports false on a malformed one.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, req any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	err := json.NewDecoder(r.Body).Decode(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{"bad request body: " + err.Error()})
	}
	return err == nil
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !s.decode(w, r, &req) {
		return
	}
	var (
		job     *Job
		hit     bool
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	)
	opts, err := expresso.ParseOptions(req.Properties, req.Mode, req.BTE)
	switch {
	case err != nil:
	case (req.Config == "") == (req.Baseline == ""):
		err = errors.New(`exactly one of "config" and "baseline" is required`)
	case req.Baseline != "":
		job, hit, err = s.SubmitDelta(req.Baseline, req.Patch, opts, timeout)
	case !req.Patch.Empty():
		err = errors.New(`"patch" needs a "baseline" to apply to`)
	default:
		job, hit, err = s.Submit(req.Config, opts, timeout)
	}
	s.respondSubmitted(w, r, job, hit, req.Wait, err, func(j *Job) (int, any) { return http.StatusOK, j.Status() })
}

func (s *Server) handleBaselineCreate(w http.ResponseWriter, r *http.Request) {
	var req BaselineRequest
	if !s.decode(w, r, &req) {
		return
	}
	var job *Job
	opts, err := expresso.ParseOptions(req.Properties, req.Mode, req.BTE)
	switch {
	case err != nil:
	case req.Name == "" || req.Config == "":
		err = errors.New(`missing "name" or "config"`)
	default:
		job, err = s.SubmitBaseline(req.Name, req.Config, opts, 0)
	}
	s.respondSubmitted(w, r, job, false, true, err, func(j *Job) (int, any) {
		st, err := j.Status(), j.Err()
		switch {
		case st.State == JobDone:
			return http.StatusCreated, BaselineStatus{BaselineInfo: j.Registered(), Report: st.Report, Job: st.ID}
		case st.State == JobCancelled:
			return http.StatusGatewayTimeout, apiError{st.Error}
		case errors.Is(err, errPanicked):
			return http.StatusInternalServerError, apiError{st.Error}
		case errors.Is(err, expresso.ErrBaselineExists):
			return http.StatusConflict, apiError{st.Error}
		}
		return http.StatusBadRequest, apiError{st.Error}
	})
}

// respondSubmitted renders a submit outcome, one way for every kind of job:
// a refusal by its cause — 503 with Retry-After on backpressure, 404 for an
// unknown baseline, 409 for a registered one, 400 for anything else the
// client got wrong — then 202 for a job still to run, unless the request
// waits for it; a finished job is rendered by done. A client that hangs up
// on its wait cancels the job.
func (s *Server) respondSubmitted(w http.ResponseWriter, r *http.Request, job *Job, hit, wait bool, err error, done func(*Job) (int, any)) {
	switch {
	case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrDraining):
		// One second plus the queued-jobs-per-worker ratio, capped at 30: a
		// rough "when might a slot open" rather than a fixed constant.
		retry := min(1+len(s.queue)/s.cfg.Workers, 30)
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusServiceUnavailable, apiError{err.Error()})
		return
	case errors.Is(err, ErrUnknownBaseline):
		writeJSON(w, http.StatusNotFound, apiError{err.Error()})
		return
	case errors.Is(err, expresso.ErrBaselineExists):
		writeJSON(w, http.StatusConflict, apiError{err.Error()})
		return
	case err != nil: // e.g. a patch that does not apply
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	case !hit && !wait:
		writeJSON(w, http.StatusAccepted, job.Status())
		return
	}
	select {
	case <-job.Done():
		code, body := done(job)
		writeJSON(w, code, body)
	case <-r.Context().Done():
		// The client left; stop the symbolic simulation promptly.
		job.Cancel()
		<-job.Done()
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

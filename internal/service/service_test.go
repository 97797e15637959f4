package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/expresso-verify/expresso"
	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/testnet"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServerWith(t, cfg, func(*Server) {})
}

// newTestServerWith is newTestServer with the server's hooks set up before
// the pool starts.
func newTestServerWith(t *testing.T, cfg Config, setup func(*Server)) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	setup(s)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		drainServer(t, s)
	})
	return s, ts
}

func postVerify(t *testing.T, ts *httptest.Server, req JobRequest) (int, JobStatus) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, st
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	return st
}

// TestConcurrentVerify pushes 8 concurrent verifications with distinct
// option sets through a 4-worker pool and checks each completes with a
// correct report (Figure 4's route leak must be found whenever the leak
// property is requested).
func TestConcurrentVerify(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 32})
	propSets := [][]string{
		{"leak"},
		{"hijack"},
		{"traffic"},
		{"leak", "hijack"},
		{"leak", "traffic"},
		{"hijack", "traffic"},
		{"leak", "hijack", "traffic"},
		{"leak", "blackhole"},
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(propSets))
	for _, props := range propSets {
		wg.Add(1)
		go func(props []string) {
			defer wg.Done()
			code, st := postVerify(t, ts, JobRequest{
				Config:     testnet.Figure4,
				Properties: props,
				Wait:       true,
			})
			if code != http.StatusOK {
				errs <- fmt.Errorf("props %v: status %d", props, code)
				return
			}
			if st.State != JobDone || st.Report == nil {
				errs <- fmt.Errorf("props %v: state %s, report %v", props, st.State, st.Report)
				return
			}
			if !st.Report.Converged {
				errs <- fmt.Errorf("props %v: EPVP did not converge", props)
				return
			}
			wantLeak := false
			for _, p := range props {
				if p == "leak" {
					wantLeak = true
				}
			}
			leaks := st.Report.CountByKind()[expresso.RouteLeakFree]
			if wantLeak && leaks != 1 {
				errs <- fmt.Errorf("props %v: %d route leaks, want 1", props, leaks)
			}
			if !wantLeak && leaks != 0 {
				errs <- fmt.Errorf("props %v: unexpected leak violations", props)
			}
		}(props)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := s.Metrics.JobsCompleted.Load(); got != int64(len(propSets)) {
		t.Errorf("JobsCompleted = %d, want %d", got, len(propSets))
	}
	if got := s.Metrics.EngineRuns.Load(); got != int64(len(propSets)) {
		t.Errorf("EngineRuns = %d, want %d", got, len(propSets))
	}
}

// TestCacheHit proves a repeated identical submission is answered from the
// digest-keyed cache without re-entering the EPVP engine, including when
// the resubmission differs only in comments and whitespace.
func TestCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	req := JobRequest{Config: testnet.Figure4, Properties: []string{"leak"}, Wait: true}

	code, first := postVerify(t, ts, req)
	if code != http.StatusOK || first.State != JobDone {
		t.Fatalf("first run: status %d state %s (err %q)", code, first.State, first.Error)
	}
	if first.CacheHit {
		t.Fatal("first run reported a cache hit")
	}
	if got := s.Metrics.EngineRuns.Load(); got != 1 {
		t.Fatalf("EngineRuns after first run = %d, want 1", got)
	}

	code, second := postVerify(t, ts, req)
	if code != http.StatusOK || second.State != JobDone {
		t.Fatalf("second run: status %d state %s", code, second.State)
	}
	if !second.CacheHit {
		t.Error("identical resubmission missed the cache")
	}

	// Comment/whitespace noise canonicalizes to the same digest.
	noisy := req
	noisy.Config = "// a new comment\n\n" + strings.ReplaceAll(testnet.Figure4, "router PR1", "router   PR1  # same router")
	code, third := postVerify(t, ts, noisy)
	if code != http.StatusOK || !third.CacheHit {
		t.Errorf("whitespace-variant resubmission: status %d cache_hit=%v, want hit", code, third.CacheHit)
	}
	if third.Digest != first.Digest {
		t.Errorf("canonicalization: digest %s != %s", third.Digest, first.Digest)
	}

	if got := s.Metrics.EngineRuns.Load(); got != 1 {
		t.Errorf("EngineRuns after resubmissions = %d, want 1 (cache must bypass the engine)", got)
	}
	if got := s.Metrics.CacheHits.Load(); got != 2 {
		t.Errorf("CacheHits = %d, want 2", got)
	}
	if second.Report == nil || second.Report.CountByKind()[expresso.RouteLeakFree] != 1 {
		t.Error("cached report lost the route-leak violation")
	}
}

// TestCancelMidEPVP submits a verification large enough to spend seconds
// in the EPVP fixed point, cancels it via the API mid-run, and checks the
// job stops well before the measured uncancelled duration.
func TestCancelMidEPVP(t *testing.T) {
	// No report is kept; nor is the first run's anonymous fixed point, so
	// the second run computes it again and is still running when the
	// cancel lands.
	s, ts := newTestServer(t, Config{Workers: 1, CacheSize: -1})
	// Region 4: region 1 converges in tens of milliseconds, too short a
	// window to land a cancel in.
	region := netgen.CSP(netgen.CSPOldRegion(4))

	// Uncancelled baseline (leak-only keeps the run EPVP-dominated).
	start := time.Now()
	code, base := postVerify(t, ts, JobRequest{Config: region, Properties: []string{"leak"}, Wait: true})
	baseline := time.Since(start)
	if code != http.StatusOK || base.State != JobDone {
		t.Fatalf("baseline run: status %d state %s (err %q)", code, base.State, base.Error)
	}
	t.Logf("uncancelled baseline: %v", baseline)

	// Different property set -> different digest -> a real engine run
	// (and no stage reuse: nothing keeps an anonymous fixed point).
	start = time.Now()
	code, st := postVerify(t, ts, JobRequest{Config: region, Properties: []string{"hijack"}})
	if code != http.StatusAccepted {
		t.Fatalf("async submit: status %d", code)
	}
	for getJob(t, ts, st.ID).State == JobQueued {
		time.Sleep(5 * time.Millisecond)
	}
	// Let the run get going (into policy compilation or the fixed point,
	// both of which honor the context) before cancelling.
	settle := baseline / 4
	if settle > 2*time.Second {
		settle = 2 * time.Second
	}
	time.Sleep(settle)
	cancelAt := time.Now()
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if _, err := http.DefaultClient.Do(delReq); err != nil {
		t.Fatalf("DELETE job: %v", err)
	}
	job, ok := s.Job(st.ID)
	if !ok {
		t.Fatalf("job %s vanished", st.ID)
	}
	select {
	case <-job.Done():
	case <-time.After(baseline):
		t.Fatalf("cancelled job still running after the uncancelled duration (%v)", baseline)
	}
	latency := time.Since(cancelAt)
	total := time.Since(start)
	t.Logf("cancel latency: %v, total: %v", latency, total)

	final := getJob(t, ts, st.ID)
	if final.State != JobCancelled {
		t.Fatalf("state = %s, want %s (err %q)", final.State, JobCancelled, final.Error)
	}
	if !strings.Contains(final.Error, "context") {
		t.Errorf("error %q does not name the context", final.Error)
	}
	if latency > baseline/2 {
		t.Errorf("cancellation latency %v, want well under the uncancelled %v", latency, baseline)
	}
	if total > 3*baseline/4 {
		t.Errorf("cancelled run took %v total, want well under the uncancelled %v", total, baseline)
	}
	if got := s.Metrics.JobsCancelled.Load(); got != 1 {
		t.Errorf("JobsCancelled = %d, want 1", got)
	}
}

// TestQueueFullRejects fills the pool and the queue with blocking jobs and
// checks the next submission is rejected with 503.
func TestQueueFullRejects(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	s.run = func(ctx context.Context, baseline, cfg string, opts expresso.Options) (*expresso.Report, *expresso.RunInfo, error) {
		select {
		case <-release:
			return &expresso.Report{Converged: true}, nil, nil
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	defer close(release)

	// Distinct configs so nothing collides in the cache.
	submit := func(i int) (int, JobStatus) {
		return postVerify(t, ts, JobRequest{Config: fmt.Sprintf("router R%d\nbgp as %d\n", i, i+1)})
	}
	code1, st1 := submit(1) // picked up by the lone worker
	if code1 != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code1)
	}
	deadline := time.Now().Add(5 * time.Second)
	for getJob(t, ts, st1.ID).State != JobRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code, _ := submit(2); code != http.StatusAccepted { // sits in the queue
		t.Fatalf("second submit: status %d", code)
	}
	code3, _ := submit(3)
	if code3 != http.StatusServiceUnavailable {
		t.Errorf("overflow submit: status %d, want 503", code3)
	}
	if got := s.Metrics.JobsRejected.Load(); got != 1 {
		t.Errorf("JobsRejected = %d, want 1", got)
	}
}

// TestDrain checks graceful drain: in-flight work finishes, then new
// submissions and health checks are refused.
func TestDrain(t *testing.T) {
	s := New(Config{Workers: 1})
	started := make(chan struct{})
	s.run = func(ctx context.Context, baseline, cfg string, opts expresso.Options) (*expresso.Report, *expresso.RunInfo, error) {
		close(started)
		time.Sleep(100 * time.Millisecond)
		return &expresso.Report{Converged: true}, nil, nil
	}
	s.Start()
	job, _, err := s.Submit("router A\n", expresso.Options{}, 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := job.State(); st != JobDone {
		t.Errorf("in-flight job state after drain = %s, want done", st)
	}
	if _, _, err := s.Submit("router B\n", expresso.Options{}, 0); err != ErrDraining {
		t.Errorf("submit after drain: err = %v, want ErrDraining", err)
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", rec.Code)
	}
}

// TestTimeoutCancelsJob checks the per-job deadline fires inside the
// engine and surfaces as a cancelled job.
// TestEngineWorkersDefault pins the daemon's per-job engine width: unset or
// non-positive is the documented default, one sequential engine goroutine;
// a positive value is taken as given.
func TestEngineWorkersDefault(t *testing.T) {
	t.Setenv("EXPRESSO_WORKERS", "") // the override race-parallel sets
	for _, tc := range []struct {
		cfg  Config
		want int
	}{
		{Config{}, 1},
		{Config{EngineWorkers: -3}, 1},
		{Config{EngineWorkers: 3}, 3},
	} {
		if got := New(tc.cfg).Snapshot(false).EngineWorkers; got != tc.want {
			t.Errorf("New(%+v) snapshots EngineWorkers = %d, want %d", tc.cfg, got, tc.want)
		}
	}
}

func TestTimeoutCancelsJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	region := netgen.CSP(netgen.CSPOldRegion(4)) // ~5x the deadline uncancelled
	code, st := postVerify(t, ts, JobRequest{
		Config:     region,
		Properties: []string{"leak"},
		TimeoutMS:  100,
		Wait:       true,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if st.State != JobCancelled {
		t.Fatalf("state = %s, want cancelled (err %q)", st.State, st.Error)
	}
	if got := s.Metrics.JobsCancelled.Load(); got != 1 {
		t.Errorf("JobsCancelled = %d, want 1", got)
	}
}

// TestMetricsEndpoint checks /metrics exposes the counters after activity:
// an anonymous job, its resubmission, a registration and a job on the
// registered text with another property set, whose fixed point is the
// baseline's — the one resident SRC artifact, and a src hit.
func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	req := JobRequest{Config: testnet.Figure4Fixed, Properties: []string{"leak"}, Wait: true}
	postVerify(t, ts, req)
	postVerify(t, ts, req) // cache hit
	registerBaseline(t, s, "prod", testnet.Figure4Fixed)
	if code, st := postVerify(t, ts, JobRequest{Baseline: "prod", Properties: []string{"hijack"}, Wait: true}); code != http.StatusOK || st.State != JobDone {
		t.Fatalf("baseline job: status %d state %s (err %q)", code, st.State, st.Error)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		"expresso_jobs_accepted_total 3",
		"expresso_jobs_completed_total 2",
		"expresso_cache_hits_total 1",
		"expresso_cache_misses_total 2",
		"expresso_engine_runs_total 2",
		"expresso_queue_depth 0",
		"expresso_stage_src_seconds_total",
		"expresso_stage_jobs_total 2",
		`expresso_stage_cache_hits_total{stage="report"} 1`,
		// One counted report lookup per request: the submit path's probe
		// counts only its hit, the job that ran counts the miss.
		fmt.Sprintf(`expresso_stage_cache_misses_total{stage="report"} %d`, s.Metrics.EngineRuns.Load()),
		// The anonymous job and the registration computed; the baseline job
		// was served the baseline's.
		`expresso_stage_cache_misses_total{stage="src"} 2`,
		`expresso_stage_cache_hits_total{stage="src"} 1`,
		`expresso_stage_cache_entries{stage="src"} 1`,
		"expresso_warm_starts_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n%s", want, text)
		}
	}
}

// TestStoreMetricsAndProvenance runs two daemons over one store
// directory: the first populates it, the second (a fresh replica with
// empty caches) must report `disk` provenance for SRC and expose the
// expresso_store_* counter families on /metrics. A store-less server
// must omit them.
func TestStoreMetricsAndProvenance(t *testing.T) {
	dir := t.TempDir()
	req := JobRequest{Config: testnet.Figure4Fixed, Properties: []string{"leak"}, Wait: true}

	_, ts1 := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	if code, st := postVerify(t, ts1, req); code != http.StatusOK || st.State != JobDone {
		t.Fatalf("first replica: code=%d state=%+v", code, st)
	}

	_, ts2 := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	_, st := postVerify(t, ts2, req)
	srcStatus := ""
	for _, s := range st.Stages {
		if s.Stage == "src" {
			srcStatus = s.Status
		}
	}
	if srcStatus != expresso.StageDisk {
		t.Errorf("second replica SRC status = %q, want %q (stages %+v)", srcStatus, expresso.StageDisk, st.Stages)
	}
	resp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		"expresso_store_hits_total",
		"expresso_store_misses_total",
		"expresso_store_writes_total 0",
		"expresso_store_write_bytes_total 0",
		"expresso_store_evictions_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n%s", want, text)
		}
	}

	_, ts3 := newTestServer(t, Config{Workers: 1})
	resp3, err := http.Get(ts3.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp3.Body.Close()
	buf.Reset()
	buf.ReadFrom(resp3.Body)
	if strings.Contains(buf.String(), "expresso_store_") {
		t.Error("store-less server exposes expresso_store_* families")
	}
}

// TestJobStagesProvenance checks the API surfaces per-stage cache
// provenance: the first run misses everywhere, a property-set change on
// the same anonymous text computes its fixed point again, and one on a
// registered baseline's text is served the baseline's, noted by name.
func TestJobStagesProvenance(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	stageStatus := func(st JobStatus, stage string) string {
		for _, s := range st.Stages {
			if s.Stage == stage {
				return s.Status
			}
		}
		return ""
	}

	code, first := postVerify(t, ts, JobRequest{Config: testnet.Figure4Fixed, Properties: []string{"leak"}, Wait: true})
	if code != http.StatusOK || first.State != JobDone {
		t.Fatalf("first run: status %d state %s (err %q)", code, first.State, first.Error)
	}
	if got := stageStatus(first, "src"); got != expresso.StageMiss {
		t.Errorf("first run SRC status = %q, want miss (stages %+v)", got, first.Stages)
	}

	code, second := postVerify(t, ts, JobRequest{Config: testnet.Figure4Fixed, Properties: []string{"leak", "hijack"}, Wait: true})
	if code != http.StatusOK || second.State != JobDone {
		t.Fatalf("second run: status %d state %s (err %q)", code, second.State, second.Error)
	}
	if got := stageStatus(second, "src"); got != expresso.StageMiss {
		t.Errorf("anonymous property-set change SRC status = %q, want miss (stages %+v)", got, second.Stages)
	}
	registerBaseline(t, s, "prod", testnet.Figure4Fixed)
	code, onBase := postVerify(t, ts, JobRequest{Baseline: "prod", Properties: []string{"hijack"}, Wait: true})
	if code != http.StatusOK || onBase.State != JobDone {
		t.Fatalf("baseline run: status %d state %s (err %q)", code, onBase.State, onBase.Error)
	}
	if got := stageStatus(onBase, "src"); got != expresso.StageHit {
		t.Errorf("property-set change on a baseline: SRC status %q, want hit (stages %+v)", got, onBase.Stages)
	}
	for _, st := range onBase.Stages {
		if st.Stage == "src" && st.Note != "baseline=prod" {
			t.Errorf("property-set change on a baseline: SRC note %q, want baseline=prod", st.Note)
		}
	}

	// Identical resubmission: answered from the report cache, with the
	// single report-stage entry marking the hit.
	code, third := postVerify(t, ts, JobRequest{Config: testnet.Figure4Fixed, Properties: []string{"leak"}, Wait: true})
	if code != http.StatusOK || !third.CacheHit {
		t.Fatalf("resubmission: status %d cacheHit %v", code, third.CacheHit)
	}
	if got := stageStatus(third, "report"); got != expresso.StageHit {
		t.Errorf("resubmission report status = %q, want hit", got)
	}
}

// TestBadRequests exercises the API's error paths: a job is a config or a
// patch against a baseline, never both and never neither, its options name
// only what a stage can check, and the route that took configs before
// /v1/jobs did is gone.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		req  JobRequest
	}{
		{"neither config nor baseline", JobRequest{}},
		{"config and baseline", JobRequest{Config: "router A\n", Baseline: "prod"}},
		{"config and patch", JobRequest{Config: "router A\n", Patch: expresso.Patch{Ops: []expresso.PatchOp{{Op: "delete", Router: "A"}}}}},
		{"bad mode", JobRequest{Config: "router A\n", Mode: "turbo"}},
		{"bad property", JobRequest{Config: "router A\n", Properties: []string{"nosuch"}}},
		{"bad bte", JobRequest{Config: "router A\n", BTE: "zzz"}},
		{"property no stage checks", JobRequest{Config: "router A\n", Properties: []string{"egress"}}},
		{"bte without a community", JobRequest{Config: "router A\n", Properties: []string{"bte"}}},
	}
	for _, tc := range cases {
		if code, _ := postVerify(t, ts, tc.req); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
	if code := getStatus(t, ts.URL+"/v1/jobs/j-999999"); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
	resp, err := http.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(`{"config":"router A\n"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/verify: status %d, want 404", resp.StatusCode)
	}
}

// TestMalformedConfigFails checks a parse error surfaces as a failed job,
// not a crash or a cached entry.
func TestMalformedConfigFails(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	code, st := postVerify(t, ts, JobRequest{Config: "bgp as 5\n", Wait: true})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if st.State != JobFailed || st.Error == "" {
		t.Fatalf("state = %s err %q, want failed with a message", st.State, st.Error)
	}
	if got := s.Metrics.JobsFailed.Load(); got != 1 {
		t.Errorf("JobsFailed = %d, want 1", got)
	}
	if s.verifier.CachedReports() != 0 {
		t.Error("failed job must not be cached")
	}
}

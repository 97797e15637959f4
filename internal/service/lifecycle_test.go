package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	rtdebug "runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/expresso-verify/expresso"
	"github.com/expresso-verify/expresso/internal/telemetry"
	"github.com/expresso-verify/expresso/internal/testnet"
)

// syncBuffer is a concurrency-safe log sink: slog handlers may be called
// from the worker pool and the submission path at once.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func drainServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.Drain(ctx)
}

// TestSupersededSlogEvent pins the structured lifecycle record the
// coalescing queue emits: retiring a queued delta logs "job superseded"
// with the loser's ID, the winning job's ID, the baseline, and how long
// the loser waited.
func TestSupersededSlogEvent(t *testing.T) {
	var buf syncBuffer
	s := New(Config{
		Workers: 1,
		Logger:  slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	base := testnet.Figure4Fixed
	registerBaseline(t, s, "prod", base)

	jobs := make([]*Job, 2)
	for i := range jobs {
		patch, _ := deltaPatch(t, base, i)
		job, hit, err := s.SubmitDelta("prod", patch, expresso.Options{Workers: 1}, 0)
		if err != nil || hit {
			t.Fatalf("SubmitDelta %d: err=%v hit=%v", i, err, hit)
		}
		jobs[i] = job
	}
	// The pool is not started, so the second submission retired the first
	// synchronously; the event is already in the buffer.
	var found bool
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if rec["msg"] != "job superseded" {
			continue
		}
		found = true
		if rec["job"] != jobs[0].ID {
			t.Errorf("superseded event job = %v, want %v", rec["job"], jobs[0].ID)
		}
		if rec["by"] != jobs[1].ID {
			t.Errorf("superseded event by = %v, want winner %v", rec["by"], jobs[1].ID)
		}
		if rec["baseline"] != "prod" {
			t.Errorf("superseded event baseline = %v, want prod", rec["baseline"])
		}
		if _, ok := rec["queued_for"]; !ok {
			t.Errorf("superseded event missing queued_for: %v", rec)
		}
	}
	if !found {
		t.Fatalf("no \"job superseded\" record in log:\n%s", buf.String())
	}

	s.Start()
	drainServer(t, s)
}

// TestDeltaJobTraceSeedProvenance checks that a delta job run with
// tracing enabled records the warm start's provenance: the SRC stage span
// carries status "warm" and the baseline artifact's digest as its seed.
func TestDeltaJobTraceSeedProvenance(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Trace: true})
	base := testnet.Figure4Fixed
	registerBaseline(t, s, "prod", base)

	patch, _ := deltaPatch(t, base, 1)
	job, hit, err := s.SubmitDelta("prod", patch, expresso.Options{Workers: 1}, 0)
	if err != nil || hit {
		t.Fatalf("SubmitDelta: err=%v hit=%v", err, hit)
	}
	select {
	case <-job.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("delta job did not finish")
	}
	if st := job.State(); st != JobDone {
		t.Fatalf("job state = %q, want done (err %q)", st, job.Status().Error)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace = %d, want 200", resp.StatusCode)
	}
	var tr telemetry.Trace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	var seeded bool
	for _, sp := range tr.Spans {
		if sp.Name != "src" {
			continue
		}
		if sp.Status != "warm" {
			t.Fatalf("src span status = %q, want warm (delta must warm-start from the baseline)", sp.Status)
		}
		if sp.Seed == "" {
			t.Fatalf("src span has no seed digest: %+v", sp)
		}
		if !strings.Contains(sp.Note, "baseline=prod") {
			t.Errorf("src span note = %q, want baseline=prod provenance", sp.Note)
		}
		seeded = true
	}
	if !seeded {
		t.Fatalf("trace has no src span: %+v", tr.Spans)
	}
	if tr.Watermark == nil || tr.Watermark.PeakLiveNodes <= 0 {
		t.Errorf("trace watermark missing or empty: %+v", tr.Watermark)
	}
}

// TestSupersededJobHasNoTrace: a delta retired before it ran must not
// leave an orphaned trace — Trace() is nil and the HTTP trace endpoint
// answers 404 for it, while the winner's trace is served normally.
func TestSupersededJobHasNoTrace(t *testing.T) {
	s := New(Config{Workers: 1, Trace: true})
	base := testnet.Figure4Fixed
	registerBaseline(t, s, "prod", base)

	jobs := make([]*Job, 2)
	for i := range jobs {
		patch, _ := deltaPatch(t, base, i)
		job, _, err := s.SubmitDelta("prod", patch, expresso.Options{Workers: 1}, 0)
		if err != nil {
			t.Fatalf("SubmitDelta %d: %v", i, err)
		}
		jobs[i] = job
	}
	if st := jobs[0].State(); st != JobSuperseded {
		t.Fatalf("loser state = %q, want superseded", st)
	}

	s.Start()
	select {
	case <-jobs[1].Done():
	case <-time.After(60 * time.Second):
		t.Fatal("winner job did not finish")
	}
	if tr := jobs[0].Trace(); tr != nil {
		t.Fatalf("superseded job has a trace: %+v", tr)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	get := func(id string) int {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(jobs[0].ID); code != http.StatusNotFound {
		t.Errorf("GET superseded trace = %d, want 404", code)
	}
	if code := get(jobs[1].ID); code != http.StatusOK {
		t.Errorf("GET winner trace = %d, want 200", code)
	}
	drainServer(t, s)
}

// workerPoison is a context that panics when an engine worker goroutine —
// one started by epvp.Pool.Each — asks it for its error from inside frame:
// the engine's fan-out runs caller-supplied code (the context) on its
// goroutines, which is the one seam a panic can be injected through without
// a hook in the engine.
type workerPoison struct {
	context.Context
	frame string
	fired *atomic.Bool
}

func (c workerPoison) Err() error {
	stack := string(rtdebug.Stack())
	if strings.Contains(stack, ".Each.func") && strings.Contains(stack, c.frame) && c.fired.CompareAndSwap(false, true) {
		panic("poisoned " + c.frame)
	}
	return c.Context.Err()
}

// TestEngineWorkerPanicFailsTheJob: at four engine workers, a panic inside
// an EPVP round worker and one inside an SPF worker each fail their job —
// the pool re-raises them on the job's goroutine, where verify recovers —
// and the daemon's only worker goes on to serve the next request.
func TestEngineWorkerPanicFailsTheJob(t *testing.T) {
	var frame atomic.Value // string: where the next job's context panics
	var fired atomic.Bool
	s := New(Config{Workers: 1, EngineWorkers: 4, CacheSize: -1, Logger: slog.New(slog.NewJSONHandler(io.Discard, nil))})
	realRun := s.run
	s.run = func(ctx context.Context, baseline, cfg string, opts expresso.Options) (*expresso.Report, *expresso.RunInfo, error) {
		if f, _ := frame.Load().(string); f != "" {
			ctx = workerPoison{ctx, f, &fired}
		}
		return realRun(ctx, baseline, cfg, opts)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drainServer(t, s)

	req := JobRequest{Config: testnet.Figure4, Properties: []string{"leak", "blackhole"}, Wait: true}
	for i, f := range []string{"epvp.(*Engine).recompute", "spf.(*Result).forward"} {
		frame.Store(f)
		fired.Store(false)
		code, st := postVerify(t, ts, req)
		if code != http.StatusOK || st.State != JobFailed ||
			!strings.Contains(st.Error, "panicked: poisoned "+f) || !strings.Contains(st.Error, "[in an engine worker]") {
			t.Fatalf("job poisoned in %s: status %d state %s err %q, want failed with the worker's panic", f, code, st.State, st.Error)
		}
		if p := s.Metrics.JobPanics.Load(); p != int64(i+1) {
			t.Errorf("JobPanics = %d after %d poisoned jobs", p, i+1)
		}
		frame.Store("")
		code, st = postVerify(t, ts, req)
		if code != http.StatusOK || st.State != JobDone {
			t.Fatalf("job after the panic in %s: status %d state %s (err %q), want done", f, code, st.State, st.Error)
		}
	}
}

// TestPanickingJobFailsAlone injects a verification that panics: the job
// must finish failed with the panic's message, the stack must reach the
// log, the panic counter must show on /metrics, and the pool's only worker
// must go on to serve the next job.
func TestPanickingJobFailsAlone(t *testing.T) {
	var buf syncBuffer
	s := New(Config{Workers: 1, Logger: slog.New(slog.NewJSONHandler(&buf, nil))})
	realVerify := s.run
	s.run = func(ctx context.Context, baseline, cfg string, opts expresso.Options) (*expresso.Report, *expresso.RunInfo, error) {
		if strings.Contains(cfg, "poison") {
			panic("index out of range [7] with length 3")
		}
		return realVerify(ctx, baseline, cfg, opts)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drainServer(t, s)

	code, st := postVerify(t, ts, JobRequest{Config: "router poison\n", Wait: true})
	if code != http.StatusOK {
		t.Fatalf("poisoned job: status %d", code)
	}
	if st.State != JobFailed || !strings.Contains(st.Error, "panicked: index out of range [7]") {
		t.Fatalf("poisoned job: state = %s err %q, want failed with the panic message", st.State, st.Error)
	}
	if p, f := s.Metrics.JobPanics.Load(), s.Metrics.JobsFailed.Load(); p != 1 || f != 1 {
		t.Errorf("JobPanics = %d, JobsFailed = %d, want 1 and 1", p, f)
	}

	var logged bool
	for _, line := range strings.Split(buf.String(), "\n") {
		var rec map[string]any
		if json.Unmarshal([]byte(line), &rec) != nil || rec["msg"] != "job panicked" {
			continue
		}
		logged = true
		if rec["job"] != st.ID {
			t.Errorf("panic record job = %v, want %v", rec["job"], st.ID)
		}
		if stack, _ := rec["stack"].(string); !strings.Contains(stack, "TestPanickingJobFailsAlone") {
			t.Errorf("panic record's stack does not reach the panicking frame:\n%s", stack)
		}
	}
	if !logged {
		t.Errorf("no \"job panicked\" record in log:\n%s", buf.String())
	}

	code, st = postVerify(t, ts, JobRequest{Config: testnet.Figure4Fixed, Properties: []string{"leak"}, Wait: true})
	if code != http.StatusOK || st.State != JobDone {
		t.Fatalf("job after the panic: status %d state %s (err %q), want done", code, st.State, st.Error)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	if f := parseExposition(t, body.String())["expresso_job_panics_total"]; f == nil || len(f.samples) != 1 || f.samples[0].value != 1 {
		t.Errorf("expresso_job_panics_total = %+v, want a single sample of 1", f)
	}
}

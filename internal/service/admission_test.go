package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/expresso-verify/expresso"
	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/testnet"
)

// The tests of the one admission path: a baseline registration is a job like
// any other — it waits for a worker, is refused by a full queue, fails alone
// when it panics, and can be looked up and cancelled by its ID.

// blockSlow makes every verification of a config naming a "slow" router
// block until release is closed (or the job is cancelled).
func blockSlow(s *Server, release chan struct{}) {
	realRun := s.run
	s.run = func(ctx context.Context, baseline, cfg string, opts expresso.Options) (*expresso.Report, *expresso.RunInfo, error) {
		if !strings.Contains(cfg, "slow") {
			return realRun(ctx, baseline, cfg, opts)
		}
		select {
		case <-release:
			return &expresso.Report{Converged: true}, nil, nil
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
}

// startSlow submits a blocking job and waits for the lone worker to pick it up.
func startSlow(t *testing.T, ts *httptest.Server, config string) {
	t.Helper()
	code, st := postVerify(t, ts, JobRequest{Config: config})
	if code != http.StatusAccepted {
		t.Fatalf("slow job: status %d", code)
	}
	waitFor(t, "the slow job to start", func() bool { return getJob(t, ts, st.ID).State == JobRunning })
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

type baselineReply struct {
	code   int
	header http.Header
	status BaselineStatus
}

// postBaseline posts a registration and decodes a 201's body.
func postBaseline(t *testing.T, ts *httptest.Server, req BaselineRequest) baselineReply {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/baselines", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Errorf("POST /v1/baselines: %v", err)
		return baselineReply{}
	}
	defer resp.Body.Close()
	out := baselineReply{code: resp.StatusCode, header: resp.Header}
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&out.status); err != nil {
			t.Errorf("decode POST /v1/baselines: %v", err)
		}
	}
	return out
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func metricsPage(t *testing.T, ts *httptest.Server) map[string]*metricFamily {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return parseExposition(t, buf.String())
}

// TestRegistrationWaitsItsTurn: with the pool's only worker busy, a posted
// registration is queued — visible on /debug/queue, timed by the queue-wait
// histogram — and runs when the worker frees up, instead of running an engine
// of its own beside the pool. The finished registration names its job.
func TestRegistrationWaitsItsTurn(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServerWith(t, Config{Workers: 1}, func(s *Server) { blockSlow(s, release) })
	defer func() {
		select {
		case <-release:
		default:
			close(release) // a failure above must not leave the worker blocked
		}
	}()
	startSlow(t, ts, "router slow\n")
	waits := sampleValue(t, metricsPage(t, ts), "expresso_job_queue_wait_seconds_count")

	reply := make(chan baselineReply, 1)
	go func() { reply <- postBaseline(t, ts, BaselineRequest{Name: "prod", Config: testnet.Figure4Fixed}) }()

	debug := httptest.NewServer(s.DebugHandler())
	defer debug.Close()
	waitFor(t, "the registration to show on /debug/queue", func() bool {
		select {
		case r := <-reply:
			t.Fatalf("registration answered %d while the only worker was busy", r.code)
		default:
		}
		resp, err := http.Get(debug.URL + "/debug/queue")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var qs QueueStats
		if err := json.NewDecoder(resp.Body).Decode(&qs); err != nil {
			t.Fatal(err)
		}
		return qs.Depth == 1 && qs.Queued == 1 && qs.Running == 1
	})
	if n := s.verifier.BaselineCount(); n != 0 {
		t.Fatalf("%d baselines registered while the registration was queued", n)
	}

	close(release)
	r := <-reply
	if r.code != http.StatusCreated || r.status.Name != "prod" || r.status.Report == nil {
		t.Fatalf("registration: status %d body %+v, want 201 with the baseline and its report", r.code, r.status)
	}
	if got := sampleValue(t, metricsPage(t, ts), "expresso_job_queue_wait_seconds_count"); got != waits+1 {
		t.Errorf("queue-wait observations went %g -> %g over the registration, want one more", waits, got)
	}
	if st := getJob(t, ts, r.status.Job); st.State != JobDone || st.Register != "prod" || st.Report == nil {
		t.Errorf("GET /v1/jobs/%s = %+v, want the finished registration of prod", r.status.Job, st)
	}
}

// TestRegistrationQueueFull: a registration needs a queue slot like any
// other job, and a full queue refuses it with 503 and a Retry-After.
func TestRegistrationQueueFull(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1}) // pool never started
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, _, err := s.Submit("router A\n", expresso.Options{}, 0); err != nil {
		t.Fatal(err)
	}
	r := postBaseline(t, ts, BaselineRequest{Name: "prod", Config: testnet.Figure4Fixed})
	if r.code != http.StatusServiceUnavailable || r.header.Get("Retry-After") == "" {
		t.Fatalf("registration into a full queue: status %d Retry-After %q, want 503 with a hint", r.code, r.header.Get("Retry-After"))
	}
	if s.Metrics.JobsRejected.Load() != 1 || s.Metrics.EngineRuns.Load() != 0 {
		t.Errorf("JobsRejected = %d, EngineRuns = %d, want 1 and 0", s.Metrics.JobsRejected.Load(), s.Metrics.EngineRuns.Load())
	}
}

// TestPanickingRegistrationFailsAlone: a registration whose verification
// panics is recovered like any job's — HTTP 500, the panic counted, nothing
// registered — and the worker goes on to serve the next registration.
func TestPanickingRegistrationFailsAlone(t *testing.T) {
	quiet := slog.New(slog.NewJSONHandler(io.Discard, nil))
	s, ts := newTestServerWith(t, Config{Workers: 1, Logger: quiet}, func(s *Server) {
		realRegister := s.register
		s.register = func(ctx context.Context, name, cfg string, opts expresso.Options) (*expresso.Report, *expresso.BaselineInfo, error) {
			if strings.Contains(cfg, "poison") {
				panic("index out of range [7] with length 3")
			}
			return realRegister(ctx, name, cfg, opts)
		}
	})
	if r := postBaseline(t, ts, BaselineRequest{Name: "bad", Config: "router poison\n"}); r.code != http.StatusInternalServerError {
		t.Fatalf("poisoned registration: status %d, want 500", r.code)
	}
	if got := sampleValue(t, metricsPage(t, ts), "expresso_job_panics_total"); got != 1 {
		t.Errorf("expresso_job_panics_total = %g, want 1", got)
	}
	if code := getStatus(t, ts.URL+"/v1/baselines/bad"); code != http.StatusNotFound {
		t.Errorf("GET /v1/baselines/bad = %d after the panic, want 404", code)
	}
	if r := postBaseline(t, ts, BaselineRequest{Name: "prod", Config: testnet.Figure4Fixed}); r.code != http.StatusCreated {
		t.Fatalf("registration after the panic: status %d, want 201", r.code)
	}
	if n := s.verifier.BaselineCount(); n != 1 {
		t.Errorf("%d baselines registered, want 1", n)
	}
}

// TestRegistrationIsAJob: a running registration is on /v1/jobs under its
// ID, and cancelling it there ends the POST with 504 and registers nothing.
func TestRegistrationIsAJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheSize: -1})
	reply := make(chan baselineReply, 1)
	go func() {
		// Region 4, as in TestCancelMidEPVP: long enough to land a cancel in.
		reply <- postBaseline(t, ts, BaselineRequest{Name: "prod", Config: netgen.CSP(netgen.CSPOldRegion(4)), Properties: []string{"leak"}})
	}()
	var id string
	waitFor(t, "the registration to start", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, j := range s.jobs {
			if j.register == "prod" && j.State() == JobRunning {
				id = j.ID
			}
		}
		return id != ""
	})
	if st := getJob(t, ts, id); st.Register != "prod" || st.State != JobRunning {
		t.Errorf("GET /v1/jobs/%s = %+v, want the running registration of prod", id, st)
	}
	del, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if resp, err := http.DefaultClient.Do(del); err != nil {
		t.Fatalf("DELETE job: %v", err)
	} else {
		resp.Body.Close()
	}
	if r := <-reply; r.code != http.StatusGatewayTimeout {
		t.Fatalf("cancelled registration: status %d, want 504", r.code)
	}
	if st := getJob(t, ts, id); st.State != JobCancelled {
		t.Errorf("job state = %s, want cancelled", st.State)
	}
	if code := getStatus(t, ts.URL+"/v1/baselines/prod"); code != http.StatusNotFound {
		t.Errorf("GET /v1/baselines/prod = %d after the cancel, want 404", code)
	}
	if got := s.Metrics.JobsCancelled.Load(); got != 1 {
		t.Errorf("JobsCancelled = %d, want 1", got)
	}
}

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
	"github.com/expresso-verify/expresso/internal/testnet"
)

// registerBaseline registers a baseline directly on the server's verifier
// (the HTTP path is exercised separately by TestBaselineHTTPAPI).
func registerBaseline(t *testing.T, s *Server, name, config string) *expresso.BaselineInfo {
	t.Helper()
	_, info, err := s.Verifier().RegisterBaseline(context.Background(), name, config, expresso.Options{Workers: 1})
	if err != nil {
		t.Fatalf("RegisterBaseline(%q): %v", name, err)
	}
	return info
}

// deltaPatch returns a patch appending one distinct originated prefix to
// the fixture's tail router — a semantically real change, so successive
// patches have distinct digests but share a coalesce key.
func deltaPatch(t *testing.T, base string, i int) (expresso.Patch, string) {
	t.Helper()
	changed := base + fmt.Sprintf("bgp network 203.0.113.%d/32\n", i)
	p := expresso.DiffConfigs(base, changed)
	if p.Empty() {
		t.Fatalf("delta %d diffed to an empty patch", i)
	}
	text, err := expresso.ApplyPatch(base, p)
	if err != nil {
		t.Fatalf("ApplyPatch: %v", err)
	}
	return p, text
}

// normalizedReport marshals a report with run-dependent fields zeroed
// (wall-clock timings, heap, EPVP round count) — the byte-identity
// normalization the root package's pipeline tests use.
func normalizedReport(t *testing.T, rep *expresso.Report) string {
	t.Helper()
	r := *rep
	r.Timing = expresso.Timing{}
	r.HeapBytes = 0
	r.Iterations = 0
	out, err := json.MarshalIndent(&r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestDeltaCoalescingDeterministic pins the coalescing queue's exact
// semantics with the worker pool held off: N superseding deltas against
// one baseline collapse to a single run. Every earlier job lands in the
// terminal superseded state pointing at its successor, only the final
// delta executes, and its report is byte-identical to a scratch
// verification of the same patched text.
func TestDeltaCoalescingDeterministic(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 64})
	base := testnet.Figure4Fixed
	registerBaseline(t, s, "prod", base)

	const n = 8
	jobs := make([]*Job, n)
	texts := make([]string, n)
	for i := 0; i < n; i++ {
		patch, text := deltaPatch(t, base, i)
		job, hit, err := s.SubmitDelta("prod", patch, expresso.Options{Workers: 1}, 0)
		if err != nil {
			t.Fatalf("SubmitDelta %d: %v", i, err)
		}
		if hit {
			t.Fatalf("SubmitDelta %d answered from cache; distinct deltas must miss", i)
		}
		jobs[i], texts[i] = job, text
	}

	// With no worker running yet, each submission supersedes the previous
	// one synchronously.
	for i := 0; i < n-1; i++ {
		if st := jobs[i].State(); st != JobSuperseded {
			t.Errorf("job %d state = %q before start, want %q", i, st, JobSuperseded)
		}
		if by := jobs[i].SupersededBy(); by != jobs[i+1].ID {
			t.Errorf("job %d superseded by %q, want %q", i, by, jobs[i+1].ID)
		}
		select {
		case <-jobs[i].Done():
		default:
			t.Errorf("superseded job %d's Done channel is open", i)
		}
	}
	if got := s.Metrics.JobsCoalesced.Load(); got != n-1 {
		t.Errorf("JobsCoalesced = %d, want %d", got, n-1)
	}

	s.Start()
	winner := jobs[n-1]
	select {
	case <-winner.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("winner job did not finish")
	}
	if st := winner.State(); st != JobDone {
		t.Fatalf("winner state = %q, want %q (err %q)", st, JobDone, winner.Status().Error)
	}
	if got := s.Metrics.JobsCompleted.Load(); got != 1 {
		t.Errorf("JobsCompleted = %d, want 1 (superseded jobs must not run)", got)
	}
	if got := s.Metrics.EngineRuns.Load(); got != 1 {
		t.Errorf("EngineRuns = %d, want 1", got)
	}

	// Byte-identity: the winner's delta-path report matches a scratch run.
	scratch := expresso.NewVerifier(expresso.VerifierConfig{})
	rep, _, err := scratch.VerifyText(context.Background(), texts[n-1], expresso.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := normalizedReport(t, winner.Report()), normalizedReport(t, rep); got != want {
		t.Errorf("winner report differs from scratch run:\nwinner: %s\nscratch: %s", got, want)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.Drain(ctx)
}

// TestFinishedJobsDropTheirText: the registry keeps finished jobs by the
// thousand, so none of them may keep the configuration it verified — not a
// superseded delta that never ran, and not the delta that ran and won.
func TestFinishedJobsDropTheirText(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	base := testnet.Figure4Fixed
	registerBaseline(t, s, "prod", base)
	var jobs []*Job
	for i := 0; i < 2; i++ {
		patch, _ := deltaPatch(t, base, i)
		job, _, err := s.SubmitDelta("prod", patch, expresso.Options{Workers: 1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	superseded, done := jobs[0], jobs[1]
	if st := superseded.State(); st != JobSuperseded {
		t.Fatalf("first delta is %q, want %q", st, JobSuperseded)
	}
	s.Start()
	select {
	case <-done.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("delta job did not finish")
	}
	if st := done.State(); st != JobDone {
		t.Fatalf("second delta is %q, want %q (%v)", st, JobDone, done.Err())
	}
	for _, j := range jobs {
		j.mu.Lock()
		n := len(j.configText)
		j.mu.Unlock()
		if n != 0 {
			t.Errorf("%s job %s still holds %d bytes of config text", j.State(), j.ID, n)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.Drain(ctx)
}

// TestDeltaCoalescingRace is the -race stress: concurrent clients posting
// superseding deltas against one baseline while the pool is running.
// Every job must reach a terminal state, superseded jobs must point at a
// real tracked job, and the coalesced counter must match the superseded
// population exactly.
func TestDeltaCoalescingRace(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 64})
	base := testnet.Figure4Fixed
	registerBaseline(t, s, "prod", base)
	s.Start()

	const clients, perClient = 4, 4
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		jobs []*Job
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				patch, _ := deltaPatch(t, base, c*perClient+i)
				job, _, err := s.SubmitDelta("prod", patch, expresso.Options{Workers: 1}, 0)
				if err != nil {
					t.Errorf("client %d SubmitDelta %d: %v", c, i, err)
					return
				}
				mu.Lock()
				jobs = append(jobs, job)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	var superseded int64
	for i, job := range jobs {
		select {
		case <-job.Done():
		case <-time.After(120 * time.Second):
			t.Fatalf("job %d (%s) did not reach a terminal state", i, job.ID)
		}
		st := job.Status()
		switch st.State {
		case JobDone:
			if st.Report == nil {
				t.Errorf("job %s done without a report", job.ID)
			}
			if st.Baseline != "prod" {
				t.Errorf("job %s baseline = %q, want prod", job.ID, st.Baseline)
			}
		case JobSuperseded:
			superseded++
			if st.SupersededBy == "" {
				t.Errorf("superseded job %s has no winner", job.ID)
			} else if _, ok := s.Job(st.SupersededBy); !ok {
				t.Errorf("job %s superseded by unknown job %q", job.ID, st.SupersededBy)
			}
		default:
			t.Errorf("job %s state = %q, want done or superseded", job.ID, st.State)
		}
	}
	if got := s.Metrics.JobsCoalesced.Load(); got != superseded {
		t.Errorf("JobsCoalesced = %d, but %d jobs are superseded", got, superseded)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestBaselineHTTPAPI walks the baseline CRUD surface and the delta job
// route end to end over HTTP.
func TestBaselineHTTPAPI(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16})
	base := testnet.Figure4Fixed

	post := func(path string, body any) (int, []byte) {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	// Create.
	code, body := post("/v1/baselines", BaselineRequest{Name: "prod", Config: base})
	if code != http.StatusCreated {
		t.Fatalf("POST /v1/baselines = %d (%s), want 201", code, body)
	}
	var created BaselineStatus
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if created.Name != "prod" || created.Report == nil || created.SRCDigest == "" {
		t.Fatalf("incomplete create response: %s", body)
	}

	// Duplicate name conflicts.
	if code, _ := post("/v1/baselines", BaselineRequest{Name: "prod", Config: base}); code != http.StatusConflict {
		t.Errorf("duplicate POST /v1/baselines = %d, want 409", code)
	}

	// List and get.
	resp, err := http.Get(ts.URL + "/v1/baselines")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Baselines []BaselineStatus `json:"baselines"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Baselines) != 1 || list.Baselines[0].Name != "prod" {
		t.Fatalf("GET /v1/baselines = %+v, want [prod]", list)
	}
	if resp, err = http.Get(ts.URL + "/v1/baselines/prod"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/baselines/prod = %v %v, want 200", resp.StatusCode, err)
	}
	resp.Body.Close()
	if resp, err = http.Get(ts.URL + "/v1/baselines/nope"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/baselines/nope = %v %v, want 404", resp.StatusCode, err)
	}
	resp.Body.Close()

	// Delta job against the baseline, waited to completion.
	patch, text := deltaPatch(t, base, 42)
	code, body = post("/v1/jobs", DeltaRequest{Baseline: "prod", Patch: patch, Wait: true})
	if code != http.StatusOK {
		t.Fatalf("POST /v1/jobs = %d (%s), want 200", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || st.Report == nil || st.Baseline != "prod" {
		t.Fatalf("delta job status = %+v, want done with report", st)
	}
	if st.Digest != expresso.ReportDigest(text, expresso.Options{}) {
		t.Errorf("delta job digest = %q, not the patched text's digest", st.Digest)
	}

	// Unknown baseline 404s; a bad patch 400s.
	if code, _ := post("/v1/jobs", DeltaRequest{Baseline: "nope", Patch: patch}); code != http.StatusNotFound {
		t.Errorf("POST /v1/jobs unknown baseline = %d, want 404", code)
	}
	bad := expresso.Patch{Ops: []expresso.PatchOp{{Op: "delete", Router: "no-such-router"}}}
	if code, body := post("/v1/jobs", DeltaRequest{Baseline: "prod", Patch: bad}); code != http.StatusBadRequest {
		t.Errorf("POST /v1/jobs bad patch = %d (%s), want 400", code, body)
	}

	// Metrics expose the new families.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	metrics.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"expresso_jobs_coalesced_total", "expresso_baselines 1"} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Delete, then the name is gone.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/baselines/prod", nil)
	if resp, err = http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /v1/baselines/prod = %v %v, want 200", resp.StatusCode, err)
	}
	resp.Body.Close()
	if code, _ := post("/v1/jobs", DeltaRequest{Baseline: "prod", Patch: patch}); code != http.StatusNotFound {
		t.Errorf("POST /v1/jobs after delete = %d, want 404", code)
	}
}

// TestBaselineRegistrationRace: concurrent registrations of one name all
// pass the handler's pre-check, so all but one lose inside the registry — and
// each loser is told 409 (expresso.ErrBaselineExists), not 400. That the
// losers' converged states stay pinned nowhere is the root package's
// TestRegistrationRaceLoserHoldsNothing.
func TestBaselineRegistrationRace(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	body, err := json.Marshal(BaselineRequest{Name: "prod", Config: testnet.Figure4Fixed})
	if err != nil {
		t.Fatal(err)
	}
	codes := make([]int, 6)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/baselines", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("POST /v1/baselines: %v", err)
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	created := 0
	for _, code := range codes {
		switch code {
		case http.StatusCreated:
			created++
		case http.StatusConflict:
		default:
			t.Errorf("racing POST /v1/baselines = %d, want 201 or 409", code)
		}
	}
	if created != 1 || s.verifier.BaselineCount() != 1 {
		t.Errorf("%d registrations created, %d baselines registered, want 1 and 1 (codes %v)", created, s.verifier.BaselineCount(), codes)
	}
}

// TestQueueFullRetryAfter checks the backpressure satellite: a 503 from a
// full queue carries a Retry-After hint scaled to the backlog.
func TestQueueFullRetryAfter(t *testing.T) {
	// One worker, one queue slot, and the worker pool never started: the
	// second distinct submission must be rejected.
	s := New(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	base := testnet.Figure4Fixed
	registerBaseline(t, s, "prod", base)

	patch, _ := deltaPatch(t, base, 0)
	if _, _, err := s.SubmitDelta("prod", patch, expresso.Options{Workers: 1}, 0); err != nil {
		t.Fatalf("first SubmitDelta: %v", err)
	}
	body, _ := json.Marshal(JobRequest{Config: base + "bgp network 198.51.100.1/32\n"})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /v1/jobs with full queue = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 response is missing Retry-After")
	}
}

package service

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/expresso-verify/expresso"
	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/testnet"
)

// TestParallelEngineStress drives the service with a multi-goroutine engine
// (EngineWorkers > 1) under several concurrent jobs and cancels one
// mid-run. Under -race this exercises the shared BDD node table, the
// run's striped memo, and parallel SPF from multiple engine goroutines at
// once, plus context cancellation racing the EPVP/SPF pools.
func TestParallelEngineStress(t *testing.T) {
	s := New(Config{Workers: 2, EngineWorkers: 4, QueueDepth: 16, CacheSize: -1, JobTimeout: time.Minute})
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})

	region := netgen.CSP(netgen.CSPOldRegion(1).WithPeers(3))

	// A mix of jobs that exercise both EPVP-only and full-SPF paths,
	// running concurrently on the pool.
	jobs := []*Job{}
	submit := func(cfg string, props []expresso.Kind) *Job {
		t.Helper()
		job, hit, err := s.Submit(cfg, expresso.Options{Properties: props}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			t.Fatal("cache disabled, submit must not hit")
		}
		jobs = append(jobs, job)
		return job
	}
	submit(testnet.Figure4, nil)
	submit(testnet.Case1Blackhole, []expresso.Kind{expresso.BlackHoleFree, expresso.LoopFree})
	victim := submit(region, []expresso.Kind{expresso.RouteLeakFree})
	submit(region, []expresso.Kind{expresso.RouteHijackFree, expresso.TrafficHijackFree})

	// Cancel the region-sized job once it leaves the queue, while its
	// sibling jobs keep the engine pools busy.
	for victim.State() == JobQueued {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	victim.Cancel()

	deadline := time.After(2 * time.Minute)
	for _, job := range jobs {
		select {
		case <-job.Done():
		case <-deadline:
			t.Fatalf("job %s did not finish", job.ID)
		}
	}
	for _, job := range jobs {
		st := job.State()
		if job == victim {
			// The cancel can lose the race with completion on fast
			// machines; anything but a clean terminal state is a bug.
			if st != JobCancelled && st != JobDone {
				t.Errorf("victim state = %s", st)
			}
			continue
		}
		if st != JobDone {
			t.Errorf("job %s state = %s, want done", job.ID, st)
		}
		if job.Report() == nil || !job.Report().Converged {
			t.Errorf("job %s did not converge", job.ID)
		}
	}

	// The surviving Figure4 report must match a direct sequential run.
	net, err := expresso.Load(testnet.Figure4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := net.Verify(expresso.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := jobs[0].Report()
	if len(got.Violations) != len(want.Violations) {
		t.Errorf("service run found %d violations, sequential found %d",
			len(got.Violations), len(want.Violations))
	}
	for i := range want.Violations {
		if got.Violations[i].String() != want.Violations[i].String() {
			t.Errorf("violation %d differs:\n service:    %s\n sequential: %s",
				i, got.Violations[i], want.Violations[i])
		}
	}
}

// TestConcurrentDeltasShareOneBaseline is the regression test for the
// daemon crash: delta jobs on one baseline run in one BDD manager, and
// under a tiny EXPRESSO_RECLAIM every EPVP round barrier and every pre-SPF
// point of a running job sweeps that manager — while the pool's other
// worker picks up the next job and compiles its changed routers into it.
// Each delta touches every router, so each warm start recompiles the whole
// policy table; the jobs differ in their property sets so the coalescing
// queue keeps them all. Under -race any manager access outside the
// artifact's run lock shows; without it, a sweep under an unlocked compile
// corrupts the slab and panics.
func TestConcurrentDeltasShareOneBaseline(t *testing.T) {
	t.Setenv("EXPRESSO_RECLAIM", "64")
	s := New(Config{Workers: 2, QueueDepth: 64})
	s.Start()
	t.Cleanup(func() { drainServer(t, s) })

	base := netgen.CSP(netgen.CSPOldRegion(1).WithPeers(3))
	registerBaseline(t, s, "prod", base)
	// Each set has a forwarding property, so each job reaches the pre-SPF
	// sweep.
	propSets := [][]expresso.Kind{
		nil, // every §7.1 property
		{expresso.BlackHoleFree},
		{expresso.LoopFree},
		{expresso.TrafficHijackFree},
		{expresso.RouteLeakFree, expresso.BlackHoleFree},
		{expresso.RouteLeakFree, expresso.LoopFree},
	}
	var jobs []*Job
	for i, props := range propSets {
		line := fmt.Sprintf("\nbgp network 203.0.113.%d/32\nbgp router-id ", i)
		patch := expresso.DiffConfigs(base, strings.ReplaceAll(base, "\nbgp router-id ", line))
		if len(patch.Ops) < 2 {
			t.Fatalf("delta %d touches %d routers, want all of them", i, len(patch.Ops))
		}
		job, _, err := s.SubmitDelta("prod", patch, expresso.Options{Properties: props}, 0)
		if err != nil {
			t.Fatalf("SubmitDelta %d: %v", i, err)
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		select {
		case <-job.Done():
		case <-time.After(5 * time.Minute):
			t.Fatalf("job %s did not finish", job.ID)
		}
		if st := job.State(); st != JobDone {
			t.Errorf("job %s state = %s (err %q), want done", job.ID, st, job.Status().Error)
		}
	}
	if got := s.Metrics.JobPanics.Load(); got != 0 {
		t.Errorf("JobPanics = %d, want 0", got)
	}
}

package expresso_test

// Benchmarks pricing the baseline/delta request model (PR 8):
//
//	BenchmarkVerifyRegion1           — the cold baseline (bench_test.go)
//	BenchmarkDeltaRegion1Baseline    — deltas anchored on a registered baseline
//	BenchmarkDeltaRegion1CoalescedBurst — a burst of superseding deltas
//	                                     through the coalescing queue
//
// The serve-delta-region1 benchmark workload measures the same paths
// through the daemon (verdict_p50_ms, service.runs_per_burst).

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"testing"
	"time"

	"github.com/expresso-verify/expresso"
	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/service"
)

// BenchmarkDeltaRegion1Baseline measures the delta path of the
// baseline/delta model: region 1 is registered once as a named baseline,
// then every iteration verifies a one-router patch against it. Unlike
// BenchmarkVerifyRegion1WarmDelta, the warm anchor is the baseline's
// pinned fixed point — deterministic under cache pressure — rather than
// whatever the SRC cache happens to hold. BenchmarkVerifyRegion1 is the
// cold baseline this is measured against.
func BenchmarkDeltaRegion1Baseline(b *testing.B) {
	base := netgen.CSP(netgen.CSPOldRegion(1))
	opts := expresso.Options{Properties: []expresso.Kind{expresso.RouteLeakFree}}
	v := expresso.NewVerifier(expresso.VerifierConfig{ReportCache: -1})
	ctx := context.Background()
	if _, _, err := v.RegisterBaseline(ctx, "region1", base, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		changed := base + fmt.Sprintf("bgp network 203.0.113.%d/32\n", i%256)
		patch := expresso.DiffConfigs(base, changed)
		rep, info, err := v.VerifyDelta(ctx, "region1", patch, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Converged {
			b.Fatal("delta run did not converge")
		}
		for _, st := range info.Stages {
			if st.Stage == "src" && st.Status == expresso.StageMiss {
				b.Fatalf("SRC ran cold on iteration %d (stages %+v)", i, info.Stages)
			}
		}
	}
}

// BenchmarkDeltaRegion1CoalescedBurst measures the coalescing queue
// absorbing a burst: each iteration posts 8 superseding deltas against
// the registered baseline into a single-worker server and waits for the
// winner. The queue collapses the burst to (at most a couple of) engine
// runs, so per-op cost approaches one delta verification rather than
// eight — the gap to 8x BenchmarkDeltaRegion1Baseline is what coalescing
// saves.
func BenchmarkDeltaRegion1CoalescedBurst(b *testing.B) {
	base := netgen.CSP(netgen.CSPOldRegion(1))
	opts := expresso.Options{Workers: 1, Properties: []expresso.Kind{expresso.RouteLeakFree}}
	s := service.New(service.Config{
		Workers: 1, QueueDepth: 64, CacheSize: -1,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if _, _, err := s.Verifier().RegisterBaseline(context.Background(), "region1", base, opts); err != nil {
		b.Fatal(err)
	}
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s.Drain(ctx)
	}()
	const burst = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var winner *service.Job
		for j := 0; j < burst; j++ {
			changed := base + fmt.Sprintf("bgp network 203.0.113.%d/32\n", (i*burst+j)%256)
			patch := expresso.DiffConfigs(base, changed)
			job, _, err := s.SubmitDelta("region1", patch, opts, 0)
			if err != nil {
				b.Fatal(err)
			}
			winner = job
		}
		<-winner.Done()
		if st := winner.State(); st != service.JobDone {
			b.Fatalf("winner state = %q, want done", st)
		}
	}
	b.StopTimer()
	if s.Metrics.JobsCoalesced.Load() == 0 {
		b.Fatal("burst produced no coalesced jobs")
	}
}

package expresso_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"github.com/expresso-verify/expresso"
	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/telemetry"
	"github.com/expresso-verify/expresso/internal/testnet"
)

// TestVerifyTextTrace runs the staged verifier with a tracer attached and
// checks the trace covers the whole run: one span per pipeline stage,
// exactly one round event per EPVP iteration, per-router SPF events, and
// a schema-stamped JSON document that round-trips.
func TestVerifyTextTrace(t *testing.T) {
	tracer := expresso.NewTracer()
	opts := expresso.Options{
		Properties: []expresso.Kind{
			expresso.RouteLeakFree, expresso.RouteHijackFree, expresso.TrafficHijackFree,
		},
		Trace: tracer,
	}
	v := expresso.NewVerifier(expresso.VerifierConfig{})
	rep, info, err := v.VerifyText(context.Background(), testnet.Figure4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatal("EPVP did not converge")
	}

	trace := tracer.Finish()
	if trace.Schema != telemetry.SchemaVersion {
		t.Errorf("trace schema = %q, want %q", trace.Schema, telemetry.SchemaVersion)
	}
	if trace.Digest != info.Digest {
		t.Errorf("trace digest = %q, want the run digest %q", trace.Digest, info.Digest)
	}
	if trace.Workers != rep.Timing.Workers {
		t.Errorf("trace workers = %d, want %d", trace.Workers, rep.Timing.Workers)
	}

	spansByName := map[string]int{}
	for _, sp := range trace.Spans {
		spansByName[sp.Name]++
	}
	for _, stage := range []string{"load", "src", "routing_analysis", "spf", "forwarding_analysis", "report"} {
		if spansByName[stage] < 1 {
			t.Errorf("no span for stage %q (spans %v)", stage, spansByName)
		}
	}

	if len(trace.EPVPRounds) != rep.Iterations {
		t.Errorf("trace has %d EPVP rounds, report says %d iterations",
			len(trace.EPVPRounds), rep.Iterations)
	}
	for i, r := range trace.EPVPRounds {
		if r.Round != i+1 {
			t.Fatalf("round %d is numbered %d", i, r.Round)
		}
		if r.BDDNodes <= 0 {
			t.Errorf("round %d records %d BDD nodes", r.Round, r.BDDNodes)
		}
	}
	if trace.EPVPRounds[0].Recomputed == 0 {
		t.Error("first round recomputed no routers")
	}

	if len(trace.SPFFIBs) == 0 {
		t.Error("no SPF FIB events despite a forwarding property")
	}
	if len(trace.SPFForwards) == 0 {
		t.Error("no SPF forwarding events despite a forwarding property")
	}
	if len(trace.PECCoalesce) == 0 {
		t.Error("no PEC-coalescing events")
	}
	if o := trace.SPFOrder; o == nil {
		t.Error("no SPF order section despite a forwarding property")
	} else {
		seen := map[int]bool{}
		for _, l := range o.Lengths {
			seen[l] = l >= 0 && l <= 32
		}
		if len(o.Lengths) != 33 || len(seen) != 33 {
			t.Errorf("SPF order %v is not a permutation of the 33 prefix lengths", o.Lengths)
		}
		if o.VarsUsed <= 0 || o.VarsUsed > 33*rep.Stats.Peers {
			t.Errorf("SPF order counts %d referenced data-plane variables over %d neighbors", o.VarsUsed, rep.Stats.Peers)
		}
	}

	var buf bytes.Buffer
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back telemetry.Trace
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("trace JSON does not round-trip: %v", err)
	}
	if back.Schema != trace.Schema || len(back.EPVPRounds) != len(trace.EPVPRounds) ||
		len(back.Spans) != len(trace.Spans) {
		t.Errorf("round-tripped trace lost data")
	}
}

// TestVerifyTraceCacheHit checks a report-cache hit still produces a
// valid trace: identity metadata plus the report-stage span.
func TestVerifyTraceCacheHit(t *testing.T) {
	opts := expresso.Options{Properties: []expresso.Kind{expresso.RouteLeakFree}}
	v := expresso.NewVerifier(expresso.VerifierConfig{})
	ctx := context.Background()
	if _, _, err := v.VerifyText(ctx, testnet.Figure4, opts); err != nil {
		t.Fatal(err)
	}

	opts.Trace = expresso.NewTracer()
	_, info, err := v.VerifyText(ctx, testnet.Figure4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !info.CacheHit {
		t.Fatal("second run was not a report-cache hit")
	}
	trace := opts.Trace.Finish()
	if trace.Digest != info.Digest {
		t.Errorf("trace digest = %q, want %q", trace.Digest, info.Digest)
	}
	if len(trace.Spans) != 1 || trace.Spans[0].Name != "report" || trace.Spans[0].Status != expresso.StageHit {
		t.Errorf("cache-hit spans = %+v, want one report hit", trace.Spans)
	}
	if len(trace.EPVPRounds) != 0 {
		t.Errorf("cache hit recorded %d EPVP rounds", len(trace.EPVPRounds))
	}
}

// TestVerifyTraceDirect checks the non-staged entry point (Network.Verify)
// also records rounds and stage spans — everything except the load stage,
// which only the text path times.
func TestVerifyTraceDirect(t *testing.T) {
	net, err := expresso.Load(testnet.Figure4)
	if err != nil {
		t.Fatal(err)
	}
	opts := expresso.Options{Trace: expresso.NewTracer()}
	rep, err := net.Verify(opts)
	if err != nil {
		t.Fatal(err)
	}
	trace := opts.Trace.Finish()
	if len(trace.EPVPRounds) != rep.Iterations {
		t.Errorf("trace has %d rounds, report says %d iterations",
			len(trace.EPVPRounds), rep.Iterations)
	}
	names := map[string]bool{}
	for _, sp := range trace.Spans {
		names[sp.Name] = true
	}
	for _, stage := range []string{"src", "routing_analysis", "spf", "forwarding_analysis"} {
		if !names[stage] {
			t.Errorf("no span for stage %q", stage)
		}
	}
}

// TestTraceOverhead prices the enabled tracing path against the nil-tracer
// baseline and asserts it stays under 5% on the region-1 fixture. It is a
// tier-2 check — timing-sensitive, so it only runs with
// EXPRESSO_TRACE_OVERHEAD=1 set.
func TestTraceOverhead(t *testing.T) {
	if os.Getenv("EXPRESSO_TRACE_OVERHEAD") != "1" {
		t.Skip("timing-sensitive; set EXPRESSO_TRACE_OVERHEAD=1 to run")
	}
	text := netgen.CSP(netgen.CSPOldRegion(1))
	verify := func(traced bool) {
		net, err := expresso.Load(text)
		if err != nil {
			t.Fatal(err)
		}
		opts := expresso.Options{Properties: []expresso.Kind{expresso.RouteLeakFree}}
		if traced {
			opts.Trace = expresso.NewTracer()
		}
		if _, err := net.Verify(opts); err != nil {
			t.Fatal(err)
		}
	}
	// Min-of-3 per mode, interleaved: the minimum is robust against
	// one-off scheduler noise, and interleaving cancels slow drift.
	verify(false) // warm-up
	const rounds = 3
	minNS := func(cur, d float64) float64 {
		if cur == 0 || d < cur {
			return d
		}
		return cur
	}
	var base, traced float64
	for i := 0; i < rounds; i++ {
		start := time.Now()
		verify(false)
		base = minNS(base, float64(time.Since(start).Nanoseconds()))
		start = time.Now()
		verify(true)
		traced = minNS(traced, float64(time.Since(start).Nanoseconds()))
	}
	overhead := (traced - base) / base
	t.Logf("base %.0f ns/op, traced %.0f ns/op, overhead %.2f%%", base, traced, 100*overhead)
	if overhead > 0.05 {
		t.Errorf("tracing overhead %.2f%% exceeds 5%%", 100*overhead)
	}
}

package expresso

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/testnet"
)

// TestOptionsCacheKeyGolden pins the exact cache-key rendering. The old
// rendering pushed Mode through fmt.Sprintf("%+v", ...), so a field
// rename or reorder silently changed every key; every field is now
// rendered explicitly, and this golden string is the regression guard —
// if it changes, every cached digest in a running service is invalidated,
// so change it deliberately.
func TestOptionsCacheKeyGolden(t *testing.T) {
	got := Options{}.CacheKey()
	want := "mode=t:true,c:true,a:true" +
		"|props=RouteHijackFree,RouteLeakFree,TrafficHijackFree" +
		"|bte=0"
	if got != want {
		t.Errorf("Options{}.CacheKey() =\n %q, want\n %q", got, want)
	}
	withBTE := Options{Properties: []Kind{BlockToExternal}, BTE: 0xB0A0_0001}
	if k := withBTE.CacheKey(); !strings.Contains(k, "|bte=2963275777") {
		t.Errorf("BTE rendering missing from %q", k)
	}
}

// TestTimingTotalCoversAllStages sweeps Timing's fields by reflection:
// every duration field must contribute to Total, so a stage added without
// extending Total fails here instead of silently vanishing from the sum.
func TestTimingTotalCoversAllStages(t *testing.T) {
	typ := reflect.TypeOf(Timing{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type != reflect.TypeOf(time.Duration(0)) {
			continue // Workers and any future non-duration metadata
		}
		v := reflect.New(typ).Elem()
		v.Field(i).SetInt(int64(7 * time.Millisecond))
		if got := v.Interface().(Timing).Total(); got != 7*time.Millisecond {
			t.Errorf("Timing.Total ignores stage field %s (got %v)", f.Name, got)
		}
	}
	sum := Timing{Load: 1, SRC: 10, RoutingAnalysis: 100, SPF: 1000, ForwardingAnalysis: 10000}
	if got := sum.Total(); got != 11111 {
		t.Errorf("Total = %d, want 11111", got)
	}
}

// TestParsePropertyRoundTrip covers every short name and canonical kind
// string, plus the error path.
func TestParsePropertyRoundTrip(t *testing.T) {
	short := map[string]Kind{
		"leak":      RouteLeakFree,
		"hijack":    RouteHijackFree,
		"traffic":   TrafficHijackFree,
		"blackhole": BlackHoleFree,
		"loop":      LoopFree,
		"bte":       BlockToExternal,
		"egress":    EgressPreference,
	}
	for name, want := range short {
		if got, err := ParseProperty(name); err != nil || got != want {
			t.Errorf("ParseProperty(%q) = %v, %v; want %v", name, got, err, want)
		}
		// The canonical kind string round-trips to itself.
		if got, err := ParseProperty(string(want)); err != nil || got != want {
			t.Errorf("ParseProperty(%q) = %v, %v; want %v", string(want), got, err, want)
		}
		// Surrounding whitespace is trimmed.
		if got, err := ParseProperty("  " + name + "\t"); err != nil || got != want {
			t.Errorf("ParseProperty with whitespace around %q = %v, %v", name, got, err)
		}
	}
	for _, bad := range []string{"", "   ", "Leak", "route-leak", "unknown"} {
		k, err := ParseProperty(bad)
		if err == nil {
			t.Errorf("ParseProperty(%q) = %v, want error", bad, k)
			continue
		}
		if !strings.Contains(err.Error(), "unknown property") {
			t.Errorf("ParseProperty(%q) error = %q, want it to name the unknown property", bad, err)
		}
	}
}

// TestUnrunnableSelectionsAreRejected: a property no stage checks, a Kind
// the property table lacks and BlockToExternal without a community fail
// both front doors — ParseOptions, which the CLI and the service use, and
// a Verifier run, which the Go API uses — before any stage runs. Until
// they were rejected, a selection of EgressPreference alone passed clean
// having checked nothing.
func TestUnrunnableSelectionsAreRejected(t *testing.T) {
	for _, tc := range []struct {
		name  string
		props []string
		kinds []Kind
		want  string
	}{
		{"egress", []string{"egress"}, []Kind{EgressPreference}, "CheckEgressPreference"},
		{"egress beside leak", []string{"leak", "egress"}, []Kind{RouteLeakFree, EgressPreference}, "CheckEgressPreference"},
		{"bte without a community", []string{"bte"}, []Kind{BlockToExternal}, "requires Options.BTE"},
		{"unknown kind", nil, []Kind{"Bogus"}, `unknown property "Bogus"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.props != nil {
				if _, err := ParseOptions(tc.props, "", ""); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("ParseOptions(%q) error = %v, want one naming %q", tc.props, err, tc.want)
				}
			}
			v := NewVerifier(VerifierConfig{})
			rep, info, err := v.VerifyText(context.Background(), testnet.Figure4, Options{Workers: 1, Properties: tc.kinds})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("VerifyText(%v) error = %v, want one naming %q", tc.kinds, err, tc.want)
			}
			if rep != nil || info != nil {
				t.Errorf("VerifyText(%v) returned a report %v and run info %v", tc.kinds, rep, info)
			}
			for _, st := range v.CacheStats() {
				if st.Stage != "report" && st.Hits+st.Misses+int64(st.Entries) != 0 {
					t.Errorf("stage %s ran: %+v", st.Stage, st)
				}
			}
		})
	}
	if _, err := ParseOptions([]string{"bte"}, "", "100:666"); err != nil {
		t.Errorf("bte with a community: %v", err)
	}
}

// normalizedJSON marshals a report with the run-dependent fields zeroed:
// wall-clock timings, worker count, live heap, and the EPVP round count
// (a warm start reaches the same fixed point in fewer rounds). Everything
// else — violations, witnesses, RIB and PEC counts, convergence — must be
// byte-identical between a warm-started and a cold run.
func normalizedJSON(t *testing.T, rep *Report) string {
	t.Helper()
	r := *rep
	r.Timing = Timing{}
	r.HeapBytes = 0
	r.Iterations = 0
	out, err := json.MarshalIndent(&r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func stageStatus(info *RunInfo, stage string) string {
	for _, st := range info.Stages {
		if st.Stage == stage {
			return st.Status
		}
	}
	return ""
}

// regionDelta returns the small region-1 fixture and a one-router delta
// of it (the last router originates one extra prefix).
func regionDelta() (base, delta string) {
	base = netgen.CSP(netgen.CSPOldRegion(1).WithPeers(3))
	return base, base + "bgp network 203.0.113.0/24\n"
}

// TestVerifierWarmStartByteIdentical is the acceptance check of the
// incremental text path: for a one-router config delta on the testnet and
// region fixtures, re-verifying the new full text against a registered
// baseline warm-starts SRC and produces a report byte-identical
// (normalized for run-dependent fields) to a cold run of the new
// configuration.
func TestVerifierWarmStartByteIdentical(t *testing.T) {
	regionBase, regionChanged := regionDelta()
	cases := []struct {
		name       string
		base, next string
		opts       Options
	}{
		{"figure4-to-fixed", testnet.Figure4, testnet.Figure4Fixed, Options{Workers: 1}},
		{"region1-add-network", regionBase, regionChanged,
			Options{Workers: 1, Properties: []Kind{RouteLeakFree, RouteHijackFree, TrafficHijackFree}}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			v := NewVerifier(VerifierConfig{})
			if _, _, err := v.RegisterBaseline(ctx, "prod", tc.base, tc.opts); err != nil {
				t.Fatal(err)
			}
			warmRep, warmInfo, err := v.VerifyTextFrom(ctx, "prod", tc.next, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if s := stageStatus(warmInfo, "src"); s != StageWarm {
				t.Fatalf("delta SRC status = %q, want %q (stages: %+v)", s, StageWarm, warmInfo.Stages)
			}
			if !warmRep.Converged {
				t.Fatal("warm-started run did not converge")
			}
			coldNet, err := Load(tc.next)
			if err != nil {
				t.Fatal(err)
			}
			coldRep, err := coldNet.Verify(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := normalizedJSON(t, warmRep), normalizedJSON(t, coldRep); got != want {
				t.Errorf("warm report differs from cold run:\n--- cold ---\n%s\n--- warm ---\n%s", want, got)
			}
		})
	}
}

// TestVerifierWarmStartWithReclaimSweeps is the warm-chain safety check
// of dead-node reclamation: with a tiny EXPRESSO_RECLAIM budget, a delta
// against a registered baseline sweeps the baseline's manager between
// rounds while the baseline's fixed point and the compiled transfers are
// live only through the pinning API. The warm report must
// stay byte-identical to a cold run of the new configuration at both worker
// counts.
func TestVerifierWarmStartWithReclaimSweeps(t *testing.T) {
	t.Setenv("EXPRESSO_RECLAIM", "200")
	regionBase, regionChanged := regionDelta()
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			opts := Options{Workers: workers,
				Properties: []Kind{RouteLeakFree, RouteHijackFree, TrafficHijackFree}}
			ctx := context.Background()
			v := NewVerifier(VerifierConfig{})
			if _, _, err := v.RegisterBaseline(ctx, "prod", regionBase, opts); err != nil {
				t.Fatal(err)
			}
			warmRep, warmInfo, err := v.VerifyTextFrom(ctx, "prod", regionChanged, opts)
			if err != nil {
				t.Fatal(err)
			}
			if s := stageStatus(warmInfo, "src"); s != StageWarm {
				t.Fatalf("delta SRC status = %q, want %q (stages: %+v)", s, StageWarm, warmInfo.Stages)
			}
			coldNet, err := Load(regionChanged)
			if err != nil {
				t.Fatal(err)
			}
			coldRep, err := coldNet.Verify(opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := normalizedJSON(t, warmRep), normalizedJSON(t, coldRep); got != want {
				t.Errorf("warm report under forced sweeps differs from cold run:\n--- cold ---\n%s\n--- warm ---\n%s", want, got)
			}
		})
	}
}

// TestVerifierStageReuse pins the observable reuse matrix: an identical
// resubmission hits the report cache; an anonymous text re-verified with
// another property set recomputes its fixed point into the report a cold
// run gives; a registered baseline re-verified that way is served its own
// fixed point, and adding a forwarding property on it reuses SRC and SPF.
func TestVerifierStageReuse(t *testing.T) {
	ctx := context.Background()
	v := NewVerifier(VerifierConfig{})
	cfg := testnet.Figure4
	opts := func(props ...Kind) Options { return Options{Workers: 1, Properties: props} }

	_, i1, err := v.VerifyText(ctx, cfg, opts(RouteLeakFree))
	if err != nil {
		t.Fatal(err)
	}
	if i1.CacheHit || stageStatus(i1, "src") != StageMiss {
		t.Fatalf("first run should miss everywhere: %+v", i1.Stages)
	}

	// Identical resubmission (with formatting noise): whole-report hit.
	_, i2, err := v.VerifyText(ctx, cfg+"\n// trailing comment\n", opts(RouteLeakFree))
	if err != nil {
		t.Fatal(err)
	}
	if !i2.CacheHit {
		t.Errorf("identical resubmission missed the report cache: %+v", i2.Stages)
	}

	// Anonymous property-set change: the text is parsed again and its fixed
	// point recomputed — nothing keeps an anonymous one — into a cold run's
	// report, iteration count included.
	rep3, i3, err := v.VerifyText(ctx, cfg, opts(RouteLeakFree, RouteHijackFree))
	if err != nil {
		t.Fatal(err)
	}
	if s := stageStatus(i3, "src"); s != StageMiss {
		t.Errorf("anonymous property-set change SRC status = %q, want miss (%+v)", s, i3.Stages)
	}
	if s := stageStatus(i3, "load"); s != StageMiss {
		t.Errorf("property-set change load status = %q, want miss", s)
	}
	cold, _, err := new(Verifier).VerifyText(ctx, cfg, opts(RouteLeakFree, RouteHijackFree))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := normalizedJSON(t, rep3), normalizedJSON(t, cold); got != want || rep3.Iterations != cold.Iterations {
		t.Errorf("re-verified report differs from a cold run (%d and %d rounds):\n--- cold ---\n%s\n--- got ---\n%s", cold.Iterations, rep3.Iterations, want, got)
	}

	// A registered baseline re-verified with another property set: SRC
	// served from the baseline, analysis re-run.
	if _, _, err := v.RegisterBaseline(ctx, "prod", cfg, opts(RouteLeakFree)); err != nil {
		t.Fatal(err)
	}
	_, i4, err := v.VerifyTextFrom(ctx, "prod", cfg, opts(RouteHijackFree))
	if err != nil {
		t.Fatal(err)
	}
	if src, _ := findStage(i4, "src"); src.Status != StageHit || src.Note != "baseline=prod" {
		t.Errorf("baseline property-set change SRC %q note %q, want hit noting baseline=prod (%+v)", src.Status, src.Note, i4.Stages)
	}

	// First forwarding property: SPF computed.
	_, i5, err := v.VerifyTextFrom(ctx, "prod", cfg, opts(RouteLeakFree, BlackHoleFree))
	if err != nil {
		t.Fatal(err)
	}
	if s := stageStatus(i5, "spf"); s != StageMiss {
		t.Errorf("first forwarding run SPF status = %q, want miss", s)
	}
	// Second forwarding property: SRC, SPF, and the repeated routing
	// subset all reused; only the forwarding analysis runs.
	_, i6, err := v.VerifyTextFrom(ctx, "prod", cfg, opts(RouteLeakFree, LoopFree))
	if err != nil {
		t.Fatal(err)
	}
	if s := stageStatus(i6, "spf"); s != StageHit {
		t.Errorf("second forwarding run SPF status = %q, want hit (%+v)", s, i6.Stages)
	}
	if s := stageStatus(i6, "routing_analysis"); s != StageHit {
		t.Errorf("repeated routing subset status = %q, want hit", s)
	}

	byStage := map[string]StageCacheStat{}
	for _, st := range v.CacheStats() {
		byStage[st.Stage] = st
	}
	// Misses: the first run, the anonymous change, the registration.
	if src := byStage["src"]; src.Hits != 3 || src.Misses != 3 || src.Entries != 1 {
		t.Errorf("src cache stats = %+v, want 3 hits, 3 misses, 1 entry", src)
	}
	if byStage["report"].Hits != 1 {
		t.Errorf("report cache hits = %d, want 1", byStage["report"].Hits)
	}
}

// TestVerifyTextMatchesVerify: the cached text path and the plain Network
// path are one driver over one kind of Load artifact, and must agree on
// report content; the Network path keeps nothing between calls.
func TestVerifyTextMatchesVerify(t *testing.T) {
	ctx := context.Background()
	region1, _ := regionDelta()
	for name, text := range map[string]string{"testnet": testnet.Case2RouteLeak, "region1": region1} {
		viaText, _, err := NewVerifier(VerifierConfig{}).VerifyText(ctx, text, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		net, err := Load(text)
		if err != nil {
			t.Fatal(err)
		}
		var viaNetwork [2]*Report
		for i := range viaNetwork {
			opts := Options{Workers: 1, Trace: NewTracer()}
			if viaNetwork[i], err = net.Verify(opts); err != nil {
				t.Fatal(err)
			}
			for _, sp := range opts.Trace.Finish().Spans {
				if sp.Status != StageMiss {
					t.Errorf("%s: Verify call %d: stage %s is %q, want every stage cold", name, i+1, sp.Name, sp.Status)
				}
			}
		}
		if a, b := viaNetwork[0].Iterations, viaNetwork[1].Iterations; a != b {
			t.Errorf("%s: consecutive Verify calls took %d and %d EPVP rounds", name, a, b)
		}
		if got, want := normalizedJSON(t, viaText), normalizedJSON(t, viaNetwork[1]); got != want {
			t.Errorf("%s: VerifyText and Verify disagree:\n--- Verify ---\n%s\n--- VerifyText ---\n%s", name, want, got)
		}
	}
}

// TestZeroVerifierIsCold: the zero Verifier is the one Network.Verify runs
// on, and takes text like any other — every run computes every stage.
func TestZeroVerifierIsCold(t *testing.T) {
	v := new(Verifier)
	net, err := Load(testnet.Figure4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := net.Verify(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rep, info, err := v.VerifyText(context.Background(), testnet.Figure4, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if info.CacheHit || info.Digest != ReportDigest(testnet.Figure4, Options{}) {
			t.Errorf("run %d: cache hit %v under digest %s", i+1, info.CacheHit, info.Digest)
		}
		for _, st := range info.Stages {
			if st.Status != StageMiss {
				t.Errorf("run %d: stage %s is %q, want miss", i+1, st.Stage, st.Status)
			}
		}
		if normalizedJSON(t, rep) != normalizedJSON(t, want) {
			t.Errorf("run %d: the zero Verifier's report differs from Network.Verify's", i+1)
		}
	}
	if n := v.CachedReports(); n != 0 {
		t.Errorf("the zero Verifier kept %d reports", n)
	}
	if _, err := new(Network).Verify(Options{}); err == nil {
		t.Error("a Network that was never loaded verified")
	}
}

// TestReportDigestNormalizesOptions: spellings of one request share a
// digest; different requests do not.
func TestReportDigestNormalizesOptions(t *testing.T) {
	cfg := testnet.Figure4
	// The zero Mode means FullMode; the default property set is the §7.1
	// trio. All three spellings must share a digest.
	dflt := ReportDigest(cfg, Options{})
	explicit := ReportDigest(cfg, Options{
		Mode:       FullMode(),
		Properties: []Kind{TrafficHijackFree, RouteLeakFree, RouteHijackFree},
	})
	if dflt != explicit {
		t.Error("normalized options should digest equally regardless of spelling/order")
	}
	if minus := ReportDigest(cfg, Options{Mode: ExpressoMinusMode()}); minus == dflt {
		t.Error("Expresso- must digest differently from full mode")
	}
	if leakOnly := ReportDigest(cfg, Options{Properties: []Kind{RouteLeakFree}}); leakOnly == dflt {
		t.Error("different property sets must digest differently")
	}
	if ReportDigest("router R1\n", Options{}) == ReportDigest("router R2\n", Options{}) {
		t.Error("different configs must digest differently")
	}
}

// TestVerifierConcurrentSharedArtifacts hammers one Verifier from several
// goroutines with overlapping property sets on one registered baseline, so
// its SRC and SPF artifacts are used concurrently; the per-manager run lock
// must serialize the engine. Run under -race this is the regression test
// for shared-manager concurrency.
func TestVerifierConcurrentSharedArtifacts(t *testing.T) {
	ctx := context.Background()
	v := NewVerifier(VerifierConfig{})
	if _, _, err := v.RegisterBaseline(ctx, "prod", testnet.Figure4, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	propSets := [][]Kind{
		{RouteLeakFree},
		{RouteLeakFree, RouteHijackFree},
		{BlackHoleFree},
		{RouteLeakFree, LoopFree},
	}
	errc := make(chan error, 2*len(propSets))
	for i := 0; i < 2; i++ {
		for _, props := range propSets {
			props := props
			go func() {
				_, _, err := v.VerifyTextFrom(ctx, "prod", testnet.Figure4, Options{Workers: 2, Properties: props})
				errc <- err
			}()
		}
	}
	for i := 0; i < 2*len(propSets); i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

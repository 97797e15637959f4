package expresso

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/pipeline"
	"github.com/expresso-verify/expresso/internal/symbolic"
	"github.com/expresso-verify/expresso/internal/traceview"
)

// deltaFixture is region 1 with the one-router deltas the serve-delta
// benchmark sends: the i-th delta makes one router, walking them in name
// order, originate one more /24 inside 10.0.0.0/8, a range every import
// policy of the generated networks denies.
type deltaFixture struct {
	text    string
	routers []string
	section map[string]string
}

func newDeltaFixture() *deltaFixture {
	f := &deltaFixture{text: netgen.CSP(netgen.CSPOldRegion(1)), section: map[string]string{}}
	for _, s := range config.SplitSections(f.text) {
		if s.Router != "" {
			f.routers = append(f.routers, s.Router)
			f.section[s.Router] = s.Text
		}
	}
	sort.Strings(f.routers)
	return f
}

func (f *deltaFixture) patch(i int) Patch {
	router := f.routers[i%len(f.routers)]
	line := fmt.Sprintf("bgp network 10.%d.%d.0/24\n", 200+i/250%50, i%250)
	return Patch{Ops: []PatchOp{{
		Op: config.SetOp, Router: router,
		Config: strings.TrimRight(f.section[router], "\n") + "\n" + line,
	}}}
}

func (f *deltaFixture) deltaText(t *testing.T, i int) string {
	t.Helper()
	text, err := ApplyPatch(f.text, f.patch(i))
	if err != nil {
		t.Fatal(err)
	}
	return text
}

var deltaProps = []Kind{RouteLeakFree, RouteHijackFree, TrafficHijackFree}

// deltaHeapCeiling bounds the live heap of a verifier that has run 200
// region-1 deltas against one baseline: the baseline's manager and 128
// reports. The run holds about 31 MB; while deltas left their manager
// unswept and parsed names pinned each patched text, it held 110 MB.
const deltaHeapCeiling = 96 << 20

// TestBaselineDeltasStayBounded: 200 deltas against one pinned baseline
// leave its manager no more than twice as large as the first delta did —
// warm runs sweep it (the warm floor of epvp's Relieve) — keep the heap
// under a ceiling, and answer what a cold run of the same text answers.
func TestBaselineDeltasStayBounded(t *testing.T) {
	t.Setenv("EXPRESSO_RECLAIM", "") // the default budgets: the rule under test is the warm one
	ctx := context.Background()
	opts := Options{Workers: 1, Properties: deltaProps}
	f := newDeltaFixture()
	v := NewVerifier(VerifierConfig{})
	if _, _, err := v.RegisterBaseline(ctx, "prod", f.text, opts); err != nil {
		t.Fatal(err)
	}
	b, _ := v.baselines.Get("prod")
	m := b.SRC.Eng.Space.M
	sweeps := m.ReclaimStats().Runs
	var bound int
	for i := 0; i < 200; i++ {
		rep, info, err := v.VerifyDelta(ctx, "prod", f.patch(i), opts)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if s := stageStatus(info, "src"); s != StageWarm {
			t.Fatalf("delta %d: src %s, want warm in the baseline's manager", i, s)
		}
		live := m.NumNodes()
		if i == 0 {
			bound = 2 * live
		} else if live > bound {
			t.Fatalf("delta %d: baseline manager holds %d live nodes, over twice the %d after the first delta", i, live, bound/2)
		}
		if i%20 == 19 {
			if got, want := normalizedJSON(t, rep), scratchReport(t, f.deltaText(t, i), opts); got != want {
				t.Fatalf("delta %d report differs from a cold run:\n--- cold ---\n%s\n--- delta ---\n%s", i, want, got)
			}
		}
	}
	if m.ReclaimStats().Runs == sweeps {
		t.Error("200 deltas never swept the baseline's manager")
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(v) // its caches are what the ceiling is about
	t.Logf("after 200 deltas: %d live nodes (%d after the first), %d sweeps, %d MB live heap",
		m.NumNodes(), bound/2, m.ReclaimStats().Runs-sweeps, ms.HeapAlloc>>20)
	if ms.HeapAlloc > deltaHeapCeiling {
		t.Errorf("live heap after 200 deltas is %d MB, ceiling %d MB", ms.HeapAlloc>>20, deltaHeapCeiling>>20)
	}
}

// TestBaselineDeltaSweepsOnlyWhatItBuilt: the pre-SPF barrier weighs what
// the run hash-consed, not the manager's live count, so a budget under the
// baseline's ~327 k live nodes but far over a delta's ~4 k new ones never
// sweeps the baseline's manager — whose op caches and SPF conversions the
// deltas exist to reuse — and every delta still answers what a cold run of
// its text answers.
func TestBaselineDeltaSweepsOnlyWhatItBuilt(t *testing.T) {
	t.Setenv("EXPRESSO_RECLAIM", "100000")
	ctx := context.Background()
	opts := Options{Workers: 1, Properties: deltaProps}
	f := newDeltaFixture()
	v := NewVerifier(VerifierConfig{})
	if _, _, err := v.RegisterBaseline(ctx, "prod", f.text, opts); err != nil {
		t.Fatal(err)
	}
	b, _ := v.baselines.Get("prod")
	m := b.SRC.Eng.Space.M
	if live := m.NumNodes(); live <= 100000 {
		t.Fatalf("fixture: the baseline holds %d live nodes, want more than the budget", live)
	}
	sweeps := m.ReclaimStats().Runs
	for i := 0; i < 10; i++ {
		rep, info, err := v.VerifyDelta(ctx, "prod", f.patch(i), opts)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if s := stageStatus(info, "src"); s != StageWarm {
			t.Fatalf("delta %d: src %s, want warm in the baseline's manager", i, s)
		}
		if n := m.ReclaimStats().Runs - sweeps; n != 0 {
			t.Fatalf("delta %d: the baseline's manager was swept %d times", i, n)
		}
		if got, want := normalizedJSON(t, rep), scratchReport(t, f.deltaText(t, i), opts); got != want {
			t.Fatalf("delta %d report differs from a cold run:\n--- cold ---\n%s\n--- delta ---\n%s", i, want, got)
		}
	}
}

// TestPreSPFSweepIsTraced: the pre-SPF barrier's sweep reaches the trace
// and the reclaim line of its summary. Under a 200-node budget it fires
// for a cold region-1 run, whose last round and external RIBs grow the
// manager by thousands of nodes after the last round-end sweep, and for a
// delta, whose whole warm run is over the budget.
func TestPreSPFSweepIsTraced(t *testing.T) {
	t.Setenv("EXPRESSO_RECLAIM", "200")
	ctx := context.Background()
	f := newDeltaFixture()
	v := NewVerifier(VerifierConfig{})
	check := func(name string, tr *Tracer) {
		t.Helper()
		trace := tr.Finish()
		if s := trace.PreSPFSweep; s == nil || s.Sweeps != 1 || s.SweptNodes == 0 {
			t.Fatalf("%s: pre-SPF sweep %+v, want one that freed nodes", name, s)
		}
		var out strings.Builder
		traceview.Summarize(&out, trace)
		if !strings.Contains(out.String(), ", 1 of them before SPF\n") {
			t.Fatalf("%s: summary does not count the pre-SPF sweep:\n%s", name, out.String())
		}
	}
	cold := NewTracer()
	if _, _, err := v.RegisterBaseline(ctx, "prod", f.text, Options{Workers: 1, Properties: deltaProps, Trace: cold}); err != nil {
		t.Fatal(err)
	}
	check("cold", cold)
	delta := NewTracer()
	if _, _, err := v.VerifyDelta(ctx, "prod", f.patch(0), Options{Workers: 1, Properties: deltaProps, Trace: delta}); err != nil {
		t.Fatal(err)
	}
	check("delta", delta)
}

// memoWork is what a traced run re-derived instead of finding memoized:
// the op-cache misses of its EPVP rounds and the length-slice conversions
// its SPF stage computed.
func memoWork(tr *Tracer) (misses, conversions int64) {
	trace := tr.Finish()
	for _, r := range trace.EPVPRounds {
		misses += r.ITEMisses
	}
	if trace.SPFOrder != nil {
		conversions = trace.SPFOrder.Converted
	}
	return misses, conversions
}

// newSlices counts the length slices SPF converts — one per (LengthCofactor,
// length) pair of a (router, next hop) union of U — of a delta's fixed
// point that its baseline's fixed point does not hold: the slices the
// delta is the first to convert.
func newSlices(base, delta *pipeline.SRCArtifact) int {
	sp := base.Eng.Space
	w := sp.M.NewWorker()
	type slice struct {
		cofactor bdd.Node
		length   int
	}
	slices := func(best map[string][]*symbolic.Route) []slice {
		var out []slice
		for _, rs := range best {
			byHop := map[string][]bdd.Node{}
			for _, r := range rs {
				byHop[r.NextHop] = append(byHop[r.NextHop], r.U)
			}
			for _, us := range byHop {
				u := symbolic.OrBalanced(w, us)
				for l := 0; l <= symbolic.AddrBits; l++ {
					if c := sp.LengthCofactor(u, l); c != bdd.False {
						out = append(out, slice{c, l})
					}
				}
			}
		}
		return out
	}
	seen := map[slice]bool{}
	for _, s := range slices(base.Res.Best) {
		seen[s] = true
	}
	n := 0
	for _, s := range slices(delta.Res.Best) {
		if !seen[s] {
			seen[s] = true
			n++
		}
	}
	return n
}

// TestDeltaReusesBaselineMemo: a delta runs in its baseline's manager with
// that manager's op caches and SPF conversions, so it re-derives a small
// fraction of what a cold run of the same text does, and converts exactly
// the length slices of its next-hop unions that are new — and its report
// is the cold one,
// after a sweep flushed those memos mid-run and at four workers alike.
func TestDeltaReusesBaselineMemo(t *testing.T) {
	t.Setenv("EXPRESSO_RECLAIM", "") // no sweep may flush the memos under measurement
	ctx := context.Background()
	f := newDeltaFixture()
	text := f.deltaText(t, 7)

	coldOpts := Options{Workers: 1, Properties: deltaProps, Trace: NewTracer()}
	coldRep, _, err := NewVerifier(VerifierConfig{}).VerifyText(ctx, text, coldOpts)
	if err != nil {
		t.Fatal(err)
	}
	cold := normalizedJSON(t, coldRep)
	coldMisses, coldConv := memoWork(coldOpts.Trace)

	// delta runs f.patch(7) against a fresh registration of the baseline,
	// as VerifyDelta does, and counts the new hop-union slices of its fixed
	// point while the run still holds it.
	delta := func(opts Options, beforeDelta func()) (*Report, *Verifier, int) {
		t.Helper()
		v := NewVerifier(VerifierConfig{})
		if _, _, err := v.RegisterBaseline(ctx, "prod", f.text, Options{Workers: 1, Properties: deltaProps}); err != nil {
			t.Fatal(err)
		}
		b, _ := v.baselines.Get("prod")
		beforeDelta()
		fresh := 0
		rep, info, err := v.runText(ctx, text, "prod", opts, func(out *pipeline.Outcome) error {
			fresh = newSlices(b.SRC, out.SRC)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if s := stageStatus(info, "src"); s != StageWarm {
			t.Fatalf("delta src %s, want warm in the baseline's manager", s)
		}
		return rep, v, fresh
	}

	opts := Options{Workers: 1, Properties: deltaProps, Trace: NewTracer()}
	rep, _, fresh := delta(opts, func() {})
	misses, conv := memoWork(opts.Trace)
	t.Logf("SRC op-cache misses: cold %d, delta %d; SPF slice conversions: cold %d, delta %d", coldMisses, misses, coldConv, conv)
	if misses*4 > coldMisses {
		t.Errorf("delta missed the op caches %d times, cold run %d: the baseline's caches were not reused", misses, coldMisses)
	}
	if conv == 0 || conv != int64(fresh) || conv >= coldConv {
		t.Errorf("delta computed %d slice conversions, want exactly its %d new hop-union slices, and fewer than the cold run's %d", conv, fresh, coldConv)
	}
	if got := normalizedJSON(t, rep); got != cold {
		t.Errorf("delta report differs from a cold run:\n--- cold ---\n%s\n--- delta ---\n%s", cold, got)
	}

	swept, v, _ := delta(Options{Workers: 1, Properties: deltaProps}, func() { t.Setenv("EXPRESSO_RECLAIM", "200") })
	b, _ := v.baselines.Get("prod")
	if b.SRC.Eng.Space.M.ReclaimStats().Runs == 0 {
		t.Error("a 200-node reclaim budget never swept the baseline's manager")
	}
	if got := normalizedJSON(t, swept); got != cold {
		t.Errorf("delta report after sweeps differs from a cold run:\n--- cold ---\n%s\n--- delta ---\n%s", cold, got)
	}
	t.Setenv("EXPRESSO_RECLAIM", "")

	parallel, _, _ := delta(Options{Workers: 4, Properties: deltaProps}, func() {})
	if got := normalizedJSON(t, parallel); got != cold {
		t.Errorf("delta report at four workers differs from a cold run:\n--- cold ---\n%s\n--- delta ---\n%s", cold, got)
	}

	// At two workers the baseline's runs and the delta's fan out on the
	// baseline manager's two kept workers. Worker 1 is used by nothing but
	// fan-outs, and a routing-only delta runs none outside its SRC stage,
	// so worker 1's lookups show where the delta's EPVP ran. How many of
	// them miss depends on which worker took which router, so that is
	// logged, not gated.
	routing := []Kind{RouteLeakFree, RouteHijackFree}
	coldRouting, _, err := NewVerifier(VerifierConfig{}).VerifyText(ctx, text, Options{Workers: 1, Properties: routing})
	if err != nil {
		t.Fatal(err)
	}
	v2 := NewVerifier(VerifierConfig{})
	if _, _, err := v2.RegisterBaseline(ctx, "prod", f.text, Options{Workers: 2, Properties: deltaProps}); err != nil {
		t.Fatal(err)
	}
	b, _ = v2.baselines.Get("prod")
	kept := b.SRC.Eng.Space.M.Workers(2)[1]
	before, _ := kept.MemoStats()
	opts = Options{Workers: 2, Properties: routing, Trace: NewTracer()}
	two, info, err := v2.VerifyDelta(ctx, "prod", f.patch(7), opts)
	if err != nil {
		t.Fatal(err)
	}
	if s := stageStatus(info, "src"); s != StageWarm {
		t.Fatalf("two-worker delta src %s, want warm in the baseline's manager", s)
	}
	misses, _ = memoWork(opts.Trace)
	t.Logf("SRC op-cache misses at two workers: cold %d, delta %d", coldMisses, misses)
	if after, _ := kept.MemoStats(); after == before {
		t.Error("the delta's SRC never used its baseline manager's kept worker 1: it fanned out on other workers")
	}
	if got, want := normalizedJSON(t, two), normalizedJSON(t, coldRouting); got != want {
		t.Errorf("routing delta report at two workers differs from a cold run:\n--- cold ---\n%s\n--- delta ---\n%s", want, got)
	}
}

// TestDeltaLoadParsesOnlyItsPatch: the Load stage of a delta against a
// registered baseline (Verifier.load, as VerifyDelta runs it) gives the digests a cold load of the patched text
// gives, and the delta's report is the cold run's to the byte — or, for a
// text that does not load, its error is the cold load's. Every router whose
// section the patch left as it was keeps the baseline's parsed Device,
// pointer-equal; every other router is parsed anew.
func TestDeltaLoadParsesOnlyItsPatch(t *testing.T) {
	f := newDeltaFixture()
	base := "# region 1\n" + f.text
	r0, r1 := f.routers[0], f.routers[1]
	set := func(router, text string) Patch {
		return Patch{Ops: []PatchOp{{Op: config.SetOp, Router: router, Config: text}}}
	}
	opts := Options{Workers: 1, Properties: []Kind{RouteLeakFree}}
	ctx := context.Background()
	v := NewVerifier(VerifierConfig{})
	if _, _, err := v.RegisterBaseline(ctx, "base", base, opts); err != nil {
		t.Fatal(err)
	}
	b, _ := v.baselines.Get("base")
	baseSections := map[string]string{}
	for _, s := range config.SplitSections(base) {
		baseSections[s.Router] = s.Text
	}
	for _, tc := range []struct {
		name  string
		patch Patch
	}{
		{"set-section", f.patch(0)},
		{"add-router", set("rNEW", "router rNEW\nbgp as 100\nbgp network 10.250.0.0/24\n")},
		{"delete-router", Patch{Ops: []PatchOp{{Op: config.DeleteOp, Router: r1}}}},
		{"comment-only", set(r0, f.section[r0]+"// reviewed\n")},
		{"preamble-comment", set("", "# region 1, reviewed\n")},
		{"preamble-statement", set("", "bgp as 100\n")},
		{"repeated-router", set("rX", "router "+r0+"\nbgp network 10.251.0.0/24\n")},
		{"unparsable-section", set(r1, "router "+r1+"\nbgp as 100\nbgp bogus\n")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			text, err := ApplyPatch(base, tc.patch)
			if err != nil {
				t.Fatal(err)
			}
			cold, coldErr := pipeline.Load(text)
			load, loadErr := v.load(pipeline.NewSource(text), "base")
			rep, _, err := v.VerifyDelta(ctx, "base", tc.patch, opts)
			if coldErr != nil {
				for _, err := range []error{loadErr, err} {
					if err == nil || err.Error() != coldErr.Error() {
						t.Fatalf("delta error %v, cold load error %v", err, coldErr)
					}
				}
				t.Logf("fails as a cold load does: %v", coldErr)
				return
			}
			if loadErr != nil || err != nil {
				t.Fatal(loadErr, err)
			}
			if load.Digest != cold.Digest || !reflect.DeepEqual(load.DeviceDigests, cold.DeviceDigests) {
				t.Errorf("delta load digests %s %v, cold %s %v", load.Digest, load.DeviceDigests, cold.Digest, cold.DeviceDigests)
			}
			coldRep, err := (&Network{Topo: cold.Net, load: cold}).Verify(opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := normalizedJSON(t, rep), normalizedJSON(t, coldRep); got != want {
				t.Errorf("delta report differs from the cold run's:\ndelta: %s\ncold:  %s", got, want)
			}
			for _, s := range config.SplitSections(text) {
				if s.Router == "" {
					continue
				}
				shared := load.Net.Devices[s.Router] == b.SRC.Load.Net.Devices[s.Router]
				if unchanged := baseSections[s.Router] == s.Text; shared != unchanged {
					t.Errorf("router %s: section unchanged %v, Device shared with the baseline %v", s.Router, unchanged, shared)
				}
			}
		})
	}
}

// TestConcurrentDeltasShareBaselineDevices: deltas whose mode differs from
// their baseline's run cold, each in a manager of its own and under no
// common lock, yet share the baseline's parsed Devices for the routers they
// did not change — here router A, whose AS-path match every run compiles.
// Under -race this holds the claim that a parsed Device is never written.
func TestConcurrentDeltasShareBaselineDevices(t *testing.T) {
	const base = `router A
bgp as 100
route-policy im permit node 10
 if-match as-path .*200
 set local-preference 50
route-policy im permit node 20
bgp peer X AS 200 import im
bgp peer B AS 100
router B
bgp as 100
bgp network 10.0.0.0/8
bgp peer A AS 100
bgp peer Y AS 300
`
	ctx := context.Background()
	v := NewVerifier(VerifierConfig{})
	if _, _, err := v.RegisterBaseline(ctx, "base", base, Options{Workers: 1, Mode: ExpressoMinusMode()}); err != nil {
		t.Fatal(err)
	}
	opts := Options{Workers: 1, Mode: FullMode()}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = v.VerifyTextFrom(ctx, "base", base+fmt.Sprintf("bgp network 10.%d.0.0/16\n", 100+i), opts)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

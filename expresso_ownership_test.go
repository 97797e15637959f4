package expresso

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/symbolic"
	"github.com/expresso-verify/expresso/internal/testnet"
)

// fillers are n small, semantically distinct networks: each converges to
// its own SRC artifact, in a BDD manager of its own.
func fillers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = testnet.Figure4 + fmt.Sprintf("bgp network 198.51.100.%d/32\n", i)
	}
	return out
}

// TestEvictedSRCTakesItsDerivedArtifactsAlong: SPF and forwarding results
// are BDD handles into the manager of the SRC artifact they were built on.
// An anonymous run lets go of that artifact when it returns, and when the
// same network comes back its fixed point is rebuilt in a new manager — and
// nothing built in the old one may be served for it. With the derived stages
// in LRUs of their own (keyed by content digest, eight SPF slots against
// four SRC slots) the third call below got SRC miss + SPF hit and
// dereferenced the dead manager's handles.
func TestEvictedSRCTakesItsDerivedArtifactsAlong(t *testing.T) {
	ctx := context.Background()
	region := netgen.CSP(netgen.CSPOldRegion(1))
	second := Options{Workers: 1, Properties: []Kind{BlackHoleFree, LoopFree}}
	want := scratchReport(t, region, second)

	for _, tc := range []struct {
		name    string
		cfg     VerifierConfig
		store   bool
		wantSRC string
	}{
		{"default", VerifierConfig{}, false, StageMiss},
		{"default-store", VerifierConfig{}, true, StageDisk},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.store {
				tc.cfg.StoreDir = t.TempDir()
			}
			v := NewVerifier(tc.cfg)
			if _, _, err := v.VerifyText(ctx, region, Options{Workers: 1, Properties: []Kind{TrafficHijackFree}}); err != nil {
				t.Fatal(err)
			}
			for _, other := range fillers(4) {
				if _, _, err := v.VerifyText(ctx, other, Options{Workers: 1}); err != nil {
					t.Fatal(err)
				}
			}
			rep, info, err := v.VerifyText(ctx, region, second)
			if err != nil {
				t.Fatal(err)
			}
			if s := stageStatus(info, "src"); s != tc.wantSRC {
				t.Errorf("SRC of the returning network = %q, want %q (stages %+v)", s, tc.wantSRC, info.Stages)
			}
			for _, stage := range []string{"spf", "forwarding_analysis"} {
				if s := stageStatus(info, stage); s == StageHit || s == "" {
					t.Errorf("%s = %q on a rebuilt fixed point: served from another manager", stage, s)
				}
			}
			if got := normalizedJSON(t, rep); got != want {
				t.Errorf("report differs from a cold run:\n--- cold ---\n%s\n--- got ---\n%s", want, got)
			}
		})
	}
}

// allProps is every property the pipeline drives without a parameter.
var allProps = []Kind{RouteLeakFree, RouteHijackFree, TrafficHijackFree, BlackHoleFree, LoopFree}

// TestBaselineKeepsItsDerivedArtifacts: a registered baseline holds its SRC
// artifact, and the routing, SPF and forwarding results of the registration
// run live on that artifact — so after unrelated networks, re-verifying the
// baseline as it is computes nothing past parsing the text, which no tier
// keeps.
func TestBaselineKeepsItsDerivedArtifacts(t *testing.T) {
	ctx := context.Background()
	opts := Options{Workers: 4, Properties: allProps}
	base := netgen.CSP(netgen.CSPOldRegion(1).WithPeers(3))
	for _, tc := range []struct {
		name   string
		cfg    VerifierConfig
		load   string // the load stage's status; "" when the report cache answers first
		stages []string
	}{
		{"report-cache", VerifierConfig{}, "", []string{"report"}},
		{"stage-by-stage", VerifierConfig{ReportCache: -1}, StageMiss, []string{"src", "routing_analysis", "spf", "forwarding_analysis"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := NewVerifier(tc.cfg)
			registered, _, err := v.RegisterBaseline(ctx, "prod", base, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, other := range fillers(5) {
				if _, _, err := v.VerifyText(ctx, other, opts); err != nil {
					t.Fatal(err)
				}
			}
			rep, info, err := v.VerifyDelta(ctx, "prod", Patch{}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if s := stageStatus(info, "load"); s != tc.load {
				t.Errorf("load = %q, want %q (stages %+v)", s, tc.load, info.Stages)
			}
			for _, stage := range tc.stages {
				if s := stageStatus(info, stage); s != StageHit {
					t.Errorf("%s = %q after the churn, want %q (stages %+v)", stage, s, StageHit, info.Stages)
				}
			}
			if got, want := normalizedJSON(t, rep), normalizedJSON(t, registered); got != want {
				t.Errorf("report differs from the registration's:\n--- registered ---\n%s\n--- got ---\n%s", want, got)
			}
		})
	}
}

// TestFinishedDeltaLeavesNothingPinned: a delta against a baseline builds its
// fixed point, its SPF result and its analyses in the baseline's manager, and
// the request is their one holder. Once it returns, all of that is unpinned:
// the manager's pin count is what registration left, delta after delta.
func TestFinishedDeltaLeavesNothingPinned(t *testing.T) {
	ctx := context.Background()
	opts := Options{Workers: 1, Properties: deltaProps}
	f := newDeltaFixture()
	v := NewVerifier(VerifierConfig{})
	if _, _, err := v.RegisterBaseline(ctx, "prod", f.text, opts); err != nil {
		t.Fatal(err)
	}
	b, _ := v.baselines.Get("prod")
	m := b.SRC.Eng.Space.M
	registered := m.PinnedCount()
	for i := 0; i < 8; i++ {
		_, info, err := v.VerifyDelta(ctx, "prod", f.patch(i), opts)
		if err != nil {
			t.Fatal(err)
		}
		if s := stageStatus(info, "src"); s != StageWarm {
			t.Fatalf("delta %d: src %q, want warm in the baseline's manager", i, s)
		}
		if got := m.PinnedCount(); got != registered {
			t.Fatalf("delta %d left pins behind: %d pinned, %d after registration", i, got, registered)
		}
	}
}

// TestConcurrentDeltasSurviveReleaseAndSweeps: deltas against one baseline
// share its manager, each lets go of its fixed point while other requests
// are still between their stages, and a tiny reclaim budget makes every EPVP
// round and every pre-SPF barrier sweep that manager. A request holds the
// artifact it resolved, so another's release never exposes handles still in
// use: every report equals a scratch run's, and once all are done the
// manager has what registration pinned.
func TestConcurrentDeltasSurviveReleaseAndSweeps(t *testing.T) {
	t.Setenv("EXPRESSO_RECLAIM", "200")
	ctx := context.Background()
	opts := Options{Workers: 4, Properties: allProps}
	base, _ := regionDelta()
	const clients, each = 4, 3
	texts, want := make([]string, clients*each), make([]string, clients*each)
	for i := range texts {
		texts[i] = base + fmt.Sprintf("bgp network 203.0.113.%d/32\n", i)
		want[i] = scratchReport(t, texts[i], opts)
	}

	v := NewVerifier(VerifierConfig{ReportCache: -1})
	if _, _, err := v.RegisterBaseline(ctx, "prod", base, opts); err != nil {
		t.Fatal(err)
	}
	b, _ := v.baselines.Get("prod")
	pinned := b.SRC.Eng.Space.M.PinnedCount()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c * each; i < (c+1)*each; i++ {
				rep, info, err := v.VerifyTextFrom(ctx, "prod", texts[i], opts)
				if err != nil {
					t.Errorf("delta %d: %v", i, err)
					return
				}
				if s := stageStatus(info, "src"); s != StageWarm {
					t.Errorf("delta %d: src %q, want warm in the baseline's manager", i, s)
				}
				if got := normalizedJSON(t, rep); got != want[i] {
					t.Errorf("delta %d differs from a scratch run:\n--- scratch ---\n%s\n--- got ---\n%s", i, want[i], got)
				}
			}
		}(c)
	}
	wg.Wait()
	if got := b.SRC.Eng.Space.M.PinnedCount(); got != pinned {
		t.Errorf("%d handles pinned in the baseline's manager after the deltas are gone, %d before them", got, pinned)
	}
}

// TestDerivedTableIsCapped: the routing key embeds the client-chosen BTE
// community, so one resident baseline can be asked for any number of
// distinct routing artifacts. Its table keeps the sixteen most recently used
// (pipeline.derivedCap) and unpins the rest.
func TestDerivedTableIsCapped(t *testing.T) {
	ctx := context.Background()
	base := testnet.Figure4Fixed
	v := NewVerifier(VerifierConfig{})
	if _, _, err := v.RegisterBaseline(ctx, "prod", base, Options{Workers: 4, Properties: allProps}); err != nil {
		t.Fatal(err)
	}
	b, _ := v.baselines.Get("prod")
	m := b.SRC.Eng.Space.M
	resident := func() (n int) {
		for _, st := range v.CacheStats() {
			if st.Stage == "routing_analysis" || st.Stage == "spf" || st.Stage == "forwarding_analysis" {
				n += st.Entries
			}
		}
		return n
	}
	var pinnedAtCap int
	for i := 1; i <= 100; i++ {
		opts := Options{Workers: 4, Properties: []Kind{RouteLeakFree, BlockToExternal}, BTE: route.Community(65000<<16 | i)}
		_, info, err := v.VerifyTextFrom(ctx, "prod", base, opts)
		if err != nil {
			t.Fatal(err)
		}
		if src, _ := findStage(info, "src"); src.Status != StageHit {
			t.Fatalf("BTE %d: src %s, want the baseline's own artifact", i, src.Status)
		}
		if n := resident(); n > 16 {
			t.Fatalf("BTE %d: %d derived artifacts resident, cap is 16", i, n)
		}
		if i == 20 {
			pinnedAtCap = m.PinnedCount()
		}
	}
	if n := resident(); n != 16 {
		t.Errorf("%d derived artifacts resident after 100 distinct BTE values, want the full 16", n)
	}
	if got := m.PinnedCount(); got > pinnedAtCap {
		t.Errorf("pins grew with the table full: %d after 100 BTE values, %d after 20", got, pinnedAtCap)
	}
}

// TestRegistrationRaceLoserHoldsNothing: of several concurrent registrations
// of one name exactly one wins, the others fail with ErrBaselineExists, and
// no loser keeps the converged state resident — once the winner is removed,
// its manager has nothing pinned beyond what it was born with.
func TestRegistrationRaceLoserHoldsNothing(t *testing.T) {
	ctx := context.Background()
	opts := Options{Workers: 1}
	v := NewVerifier(VerifierConfig{})
	errs := make([]error, 6)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = v.RegisterBaseline(ctx, "prod", testnet.Figure4Fixed, opts)
		}(i)
	}
	wg.Wait()
	won := 0
	for _, err := range errs {
		switch {
		case err == nil:
			won++
		case !errors.Is(err, ErrBaselineExists):
			t.Errorf("losing registration failed with %v, want ErrBaselineExists", err)
		}
	}
	if won != 1 || v.BaselineCount() != 1 {
		t.Fatalf("%d registrations won, %d baselines registered, want 1 and 1", won, v.BaselineCount())
	}

	b, _ := v.baselines.Get("prod")
	m := b.SRC.Eng.Space.M
	v.RemoveBaseline("prod")
	// A space pins its own cached predicates for life.
	born := symbolic.NewSpace(b.SRC.Eng.Space.NumNeighbors).M.PinnedCount()
	if got := m.PinnedCount(); got != born {
		t.Errorf("%d handles still pinned in the dropped baseline's manager, want the %d it was born with", got, born)
	}
}

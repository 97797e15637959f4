package epvp

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/symbolic"
	"github.com/expresso-verify/expresso/internal/telemetry"
	"github.com/expresso-verify/expresso/internal/testnet"
)

// ribSignature renders a converged result in a manager-independent form:
// per-router route lists keyed by CanonicalKey plus the structural
// fingerprint of U, so two results computed in different BDD managers can
// be compared for semantic equality.
func ribSignature(e *Engine, res *Result) string {
	out := ""
	render := func(name string, rs []*symbolic.Route) {
		out += name + ":\n"
		for _, r := range rs {
			hi, lo := e.Space.M.Fingerprint(r.U)
			out += fmt.Sprintf("  %016x%016x %s\n", hi, lo, r.CanonicalKey(e.Comm))
		}
	}
	for _, v := range e.Net.Internals {
		render(v, res.Best[v])
	}
	for _, ext := range e.Net.Externals {
		render("ext "+ext, res.ExternalRIB[ext])
	}
	return out
}

// TestWarmStartMatchesCold verifies the warm-start invariant at the engine
// level: seeding from Figure4's fixed point and marking only the changed
// router (PR1) dirty converges to exactly the cold fixed point of
// Figure4Fixed — same RIBs, same external RIBs — in fewer rounds.
func TestWarmStartMatchesCold(t *testing.T) {
	netOld := mustNet(t, testnet.Figure4)
	netNew := mustNet(t, testnet.Figure4Fixed)

	engOld := New(netOld, FullMode())
	resOld, err := engOld.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !resOld.Converged {
		t.Fatal("cold run on Figure4 did not converge")
	}

	engCold := New(netNew, FullMode())
	resCold, err := engCold.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Figure4 and Figure4Fixed differ only in PR1's section, so every
	// other router's compiled transfers may be adopted from the prior
	// engine — the test exercises the reuse path end to end.
	unchanged := map[string]bool{}
	for _, name := range netNew.Internals {
		if name != "PR1" {
			unchanged[name] = true
		}
	}
	engWarm, err := NewWarm(context.Background(), netNew, FullMode(), engOld, unchanged)
	if err != nil {
		t.Fatalf("NewWarm: %v", err)
	}
	resWarm, err := engWarm.RunWarmContext(context.Background(), resOld, []string{"PR1"})
	if err != nil {
		t.Fatal(err)
	}
	if !resWarm.Converged {
		t.Fatal("warm run did not converge")
	}
	if got, want := ribSignature(engWarm, resWarm), ribSignature(engCold, resCold); got != want {
		t.Errorf("warm-start fixed point differs from cold run:\n--- cold ---\n%s--- warm ---\n%s", want, got)
	}
	if resWarm.Iterations >= resCold.Iterations {
		t.Logf("warm iterations %d vs cold %d (no saving on this tiny fixture is acceptable)",
			resWarm.Iterations, resCold.Iterations)
	}

	// The seed's RIBs must not have been mutated by the warm run.
	engCheck := New(netOld, FullMode())
	resCheck, err := engCheck.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ribSignature(engOld, resOld), ribSignature(engCheck, resCheck); got != want {
		t.Error("warm-start mutated the prior result it was seeded from")
	}
}

// TestWarmStartNoDelta checks the degenerate warm start: over an identical
// configuration, a run with an empty dirty set, and a region-1 run with
// every router dirty, converge in one round that changes no RIB. The dirty
// routers recompute the RIBs they were seeded with, in Merge's order rather
// than the seed's canonical one, and change detection compares RIBs as
// sets (symbolic.RIBKey), so none of them counts as changed.
func TestWarmStartNoDelta(t *testing.T) {
	for name, tc := range map[string]struct {
		text     string
		allDirty bool
	}{
		"figure4-none-dirty":  {testnet.Figure4, false},
		"region1-every-dirty": {netgen.CSP(netgen.CSPOldRegion(1)), true},
	} {
		t.Run(name, func(t *testing.T) {
			net := mustNet(t, tc.text)
			eng := New(net, FullMode())
			res, err := eng.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			warmEng, err := NewWarm(context.Background(), mustNet(t, tc.text), FullMode(), eng, nil)
			if err != nil {
				t.Fatal(err)
			}
			var dirty []string
			if tc.allDirty {
				dirty = net.Internals
			}
			warmEng.Trace = telemetry.NewTracer()
			warm, err := warmEng.RunWarmContext(context.Background(), res, dirty)
			if err != nil {
				t.Fatal(err)
			}
			if !warm.Converged || warm.Iterations != 1 {
				t.Errorf("no-delta warm start: converged=%v iterations=%d, want converged in 1 round",
					warm.Converged, warm.Iterations)
			}
			for _, r := range warmEng.Trace.Finish().EPVPRounds {
				if r.RIBChanges != 0 {
					t.Errorf("round %d changed %d RIBs, want none", r.Round, r.RIBChanges)
				}
			}
			if got, want := ribSignature(warmEng, warm), ribSignature(eng, res); got != want {
				t.Error("no-delta warm start changed the fixed point")
			}
		})
	}
}

// TestRoundOneFrontier: round 1's frontier is the change set its work list
// starts from — every internal router on a cold run; on a warm run the
// internal routers of the dirty set plus the routers the seed lacks, not
// every router the seed holds.
func TestRoundOneFrontier(t *testing.T) {
	ctx := context.Background()
	net := mustNet(t, netgen.CSP(netgen.CSPOldRegion(1)))
	eng := New(net, FullMode())
	eng.Trace = telemetry.NewTracer()
	res, err := eng.RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := eng.Trace.Finish().EPVPRounds[0].Frontier, len(net.Internals); got != want {
		t.Errorf("cold round 1 frontier %d, want every internal router (%d)", got, want)
	}

	missing, dirty := net.Internals[0], net.Internals[3]
	seed := &Result{Best: map[string][]*symbolic.Route{}, ExternalRIB: res.ExternalRIB}
	for v, rs := range res.Best {
		if v != missing {
			seed.Best[v] = rs
		}
	}
	warmEng, err := NewWarm(ctx, net, FullMode(), eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	warmEng.Trace = telemetry.NewTracer()
	warm, err := warmEng.RunWarmContext(ctx, seed, []string{dirty, net.Externals[0]})
	if err != nil {
		t.Fatal(err)
	}
	if got := warmEng.Trace.Finish().EPVPRounds[0].Frontier; got != 2 {
		t.Errorf("warm round 1 frontier %d, want 2: dirty %s and %s, missing from the seed", got, dirty, missing)
	}
	if got, want := ribSignature(warmEng, warm), ribSignature(eng, res); got != want {
		t.Error("a warm run reseeding one router changed the fixed point")
	}
}

// TestNewWarmIncompatible pins the soundness guards: sharing spaces across
// different modes, external sets, or community atom universes must be
// refused so callers fall back to a cold start.
func TestNewWarmIncompatible(t *testing.T) {
	prior := New(mustNet(t, testnet.Figure4), FullMode())

	minus := FullMode()
	minus.SymbolicASPaths = false
	if _, err := NewWarm(context.Background(), mustNet(t, testnet.Figure4), minus, prior, nil); err == nil {
		t.Error("mode mismatch must refuse warm start")
	}
	if _, err := NewWarm(context.Background(), mustNet(t, testnet.Case1Blackhole), FullMode(), prior, nil); err == nil {
		t.Error("different external set must refuse warm start")
	}
	// Changing a community literal in a policy changes the atom universe.
	atomsChanged := mustNet(t, strings.ReplaceAll(testnet.Figure4, "300:100", "300:777"))
	if _, err := NewWarm(context.Background(), atomsChanged, FullMode(), prior, nil); err == nil {
		t.Error("changed atom universe must refuse warm start")
	}
	// The happy path from the same fixture still works.
	if _, err := NewWarm(context.Background(), mustNet(t, testnet.Figure4), FullMode(), prior, nil); err != nil {
		t.Errorf("identical config refused warm start: %v", err)
	}
}

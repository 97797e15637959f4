package expresso_test

import (
	"context"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/expresso-verify/expresso"
	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/epvp"
	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/pipeline"
	"github.com/expresso-verify/expresso/internal/properties"
	"github.com/expresso-verify/expresso/internal/spf"
	"github.com/expresso-verify/expresso/internal/telemetry"
	"github.com/expresso-verify/expresso/internal/topology"
)

// The allocation-regression budget for one cold region-1 verification
// (leak-only). History of the measured run: ~224 MB before the PR-5 BDD
// overhaul (exact rehashing memo tables), ~126 MB after it while policy
// compilation still built every prefix guard as an And-chain (1.26 M
// created nodes, almost all garbage), 22-30 MB in ~91 k objects once
// guards are constructed directly as cube sets. The ceilings sit 1.3-1.6x
// over today's worst reading: normal variance passes, either regression
// fails loudly.
const (
	region1AllocCeiling   = 48 << 20
	region1MallocsCeiling = 120_000
	// region1CompileNodesCeiling bounds the nodes hash-consed by building
	// the region-1 engine (space + policy compile): 1,261,290 with
	// And-chains, 1,143 with direct construction. An apply-built literal
	// chain creeping back into a guard costs ~200 nodes per configured
	// prefix and blows through this.
	region1CompileNodesCeiling = 50_000
	// region1SPFNodesCeiling bounds the nodes hash-consed by symbolic
	// packet forwarding on the converged region-1 RIB, between SRC's end
	// and SPF's end: 470,810 with the data-plane block shortest length
	// first and the FIBs folded from the highest priority down, 216,339
	// with the block ranked and the fold run from the lowest priority up,
	// 155,939 once each FIB converts one union per next hop and folds its
	// priority groups in a balanced tree. A block-order or fold-direction
	// regression lands well over this.
	region1SPFNodesCeiling = 350_000
	// The region-4 ceilings bound one Workers=1 EPVP fixed point by the sums
	// of its per-round trace counters, which repeat exactly: 1,291,165
	// op-cache misses and 792,568 created nodes with Merge
	// subtracting per (neighbor, preference) tier (1,286,901 misses once it
	// goes through the run's merge memo; region 4 never sweeps), 1.85 M and
	// 0.965 M with the per-route chain it replaced. The chain coming back
	// lands over both.
	region4EPVPMissesCeiling = 1_600_000
	region4EPVPNodesCeiling  = 900_000
	// region4SPFNodesCeiling bounds the nodes spf.Run hash-conses on that
	// Workers=1 fixed point (block ranking, FIBs and forwarding), which
	// also repeat exactly: 2,745,518 with one conversion per route and a
	// linear fold over the rules, 1,829,667 with one union per next hop
	// and the balanced fold, 1,715,509 once the ranking reads length
	// cofactors instead of restricting out slices (114,514 nodes; the
	// guard also holds the ranking alone to none). Either fold half alone
	// lands over this: the linear fold over the hop unions reads
	// 2,048,100, per-route conversion under the balanced fold 3,076,403.
	region4SPFNodesCeiling = 1_800_000
	// fullOldEPVPMissesCeiling bounds the same sum for one Workers=1 EPVP
	// fixed point on full-old, which sweeps at the end of rounds 3 and 4:
	// 23,164,829 op-cache misses before EPVP's merge memo, 20,642,674 with
	// the memo flushed at every sweep, 16,053,408 with the memo rooted
	// across them (round 5 drops from 3.8 M to 0.38 M). Losing the memo or
	// its rooting lands over this.
	fullOldEPVPMissesCeiling = 20_000_000
	// fullOldLeakNodesCeiling bounds the nodes hash-consed by
	// CheckRouteLeak on that full-old fixed point: 95,011 while it built a
	// witness prefix and condition for each of the 696 leaked routes, ~550
	// once it builds one per reported violation (4 receiving neighbors).
	// A per-route witness creeping back lands far over this.
	fullOldLeakNodesCeiling = 5_000
	// The region-1 delta ceilings bound one traced Workers=1 delta that adds
	// a /24 to peering router r1PR0: the recomputes its EPVP rounds ran,
	// summed, and the length slices its SPF converted. Recomputes read 32
	// while change detection compared RIBs as lists (round 1 then counted
	// every dirty router as changed, its seed being in canonical order and
	// its recomputation in Merge's) and 24 as sets; conversions read 9, one
	// /24 slice per hop union the route reached, where a memo keyed by the
	// whole union converts every slice of those unions again.
	region1DeltaRecomputedCeiling  = 31
	region1DeltaConversionsCeiling = 12
	// region1DeltaLoadShare bounds the bytes the Load stage of a one-router
	// region-1 delta against the unpatched text as its baseline allocates, as
	// a share of a full pipeline.Load of the same text: patching the largest
	// router (a fifth of the text) reads ~0.16 once the other routers keep
	// the baseline's parse, 0.82 when it parses the whole text again.
	region1DeltaLoadShare = 0.25
)

// TestRegion1AllocGuard is the env-gated allocation-regression guard:
// it verifies region 1 cold and fails if the run allocates more bytes or
// objects than the ceilings above, if a one-router delta's Load stage
// against it allocates more than region1DeltaLoadShare of a full load's
// bytes, if compiling its policies creates more
// BDD nodes than region1CompileNodesCeiling, if symbolic forwarding over
// its converged RIB creates more than region1SPFNodesCeiling, or if a
// one-router delta against it recomputes more routers or converts more
// length slices than the region1Delta ceilings; then it runs
// region 4's EPVP rounds against the region4EPVP ceilings, bounds that
// manager's op-cache slots and unique-table bytes, and runs SPF on the
// result against region4SPFNodesCeiling, its block ranking against no
// node at all; last, it runs full-old's
// EPVP rounds against fullOldEPVPMissesCeiling, logs their wall time, and
// holds the route-leak check on their result to fullOldLeakNodesCeiling.
// Gated behind
// EXPRESSO_ALLOC_GUARD because the measurement needs a quiet heap (and is
// meaningless when other tests run concurrently); `make alloc-guard` —
// part of `make ci` — sets the variable.
func TestRegion1AllocGuard(t *testing.T) {
	if os.Getenv("EXPRESSO_ALLOC_GUARD") == "" {
		t.Skip("set EXPRESSO_ALLOC_GUARD=1 (make alloc-guard) to run the allocation-regression guard")
	}
	text := netgen.CSP(netgen.CSPOldRegion(1))
	opts := expresso.Options{Properties: []expresso.Kind{expresso.RouteLeakFree}}
	run := func() {
		net, err := expresso.Load(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Verify(opts); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: lazy initialization outside the measured window

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	allocated, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("region-1 cold verification allocated %d bytes in %d objects (ceilings %d, %d)",
		allocated, mallocs, uint64(region1AllocCeiling), uint64(region1MallocsCeiling))
	if allocated > region1AllocCeiling {
		t.Errorf("region-1 verification allocated %d bytes, over the %d-byte regression ceiling",
			allocated, uint64(region1AllocCeiling))
	}
	if mallocs > region1MallocsCeiling {
		t.Errorf("region-1 verification allocated %d objects, over the %d-object regression ceiling",
			mallocs, uint64(region1MallocsCeiling))
	}

	// The baseline stands in for a registered one: its text, and the Load
	// artifact its fixed point would sit on.
	baseLoad, err := pipeline.Load(text)
	if err != nil {
		t.Fatal(err)
	}
	base := pipeline.NewBaseline("region1", text, &pipeline.Outcome{SRC: &pipeline.SRCArtifact{Load: baseLoad}}, time.Now())
	var largest config.Section
	for _, s := range config.SplitSections(text) {
		if len(s.Text) > len(largest.Text) {
			largest = s
		}
	}
	delta, err := config.ApplyPatch(text, config.Patch{Ops: []config.PatchOp{{
		Op: config.SetOp, Router: largest.Router, Config: largest.Text + "bgp network 10.200.0.0/24\n",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	src := pipeline.NewSource(delta)
	deltaLoad := allocatedBy(t, func() error { _, err := pipeline.LoadSource(src, base); return err })
	fullLoad := allocatedBy(t, func() error { _, err := pipeline.Load(delta); return err })
	t.Logf("region-1 one-router delta load allocated %d bytes, a full load %d (share %.2f, ceiling %.2f)",
		deltaLoad, fullLoad, float64(deltaLoad)/float64(fullLoad), region1DeltaLoadShare)
	if float64(deltaLoad) > region1DeltaLoadShare*float64(fullLoad) {
		t.Errorf("a one-router region-1 delta load allocated %d bytes, over %.2f of a full load's %d: does it parse the whole text again?",
			deltaLoad, region1DeltaLoadShare, fullLoad)
	}

	devices, err := config.ParseConfigs(text)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.Build(devices)
	if err != nil {
		t.Fatal(err)
	}
	eng := epvp.New(topo, epvp.FullMode())
	_, created := eng.Space.M.UniqueStats()
	t.Logf("region-1 policy compile created %d BDD nodes (ceiling %d)", created, region1CompileNodesCeiling)
	if created > region1CompileNodesCeiling {
		t.Errorf("region-1 policy compile created %d BDD nodes, over the %d-node ceiling: is a guard being built with apply again?",
			created, region1CompileNodesCeiling)
	}

	eng.Workers = 1
	cp := eng.Run()
	_, srcEnd := eng.Space.M.UniqueStats()
	spf.Run(eng, cp)
	_, spfEnd := eng.Space.M.UniqueStats()
	t.Logf("region-1 SPF created %d BDD nodes (ceiling %d)", spfEnd-srcEnd, region1SPFNodesCeiling)
	if spfEnd-srcEnd > region1SPFNodesCeiling {
		t.Errorf("region-1 SPF created %d BDD nodes, over the %d-node ceiling: did the data-plane block order or the FIB fold direction change?",
			spfEnd-srcEnd, region1SPFNodesCeiling)
	}

	recomputed, conversions := region1DeltaWork(t, text, "r1PR0")
	t.Logf("region-1 one-router delta: %d router recomputes (ceiling %d), %d length-slice conversions (ceiling %d)",
		recomputed, region1DeltaRecomputedCeiling, conversions, region1DeltaConversionsCeiling)
	if recomputed > region1DeltaRecomputedCeiling {
		t.Errorf("a one-router region-1 delta recomputed routers %d times, over the %d ceiling: does warm change detection compare RIBs as lists again?",
			recomputed, region1DeltaRecomputedCeiling)
	}
	if conversions > region1DeltaConversionsCeiling {
		t.Errorf("a one-router region-1 delta converted %d length slices, over the %d ceiling: is SPF's conversion memo keyed by whole unions again?",
			conversions, region1DeltaConversionsCeiling)
	}

	region4, err := expresso.Load(netgen.CSP(netgen.CSPOldRegion(4)))
	if err != nil {
		t.Fatal(err)
	}
	eng = epvp.New(region4.Topo, epvp.FullMode())
	eng.Workers, eng.Trace = 1, telemetry.NewTracer()
	cp = eng.Run()
	var misses, nodes int64
	for _, r := range eng.Trace.Finish().EPVPRounds {
		misses += r.ITEMisses
		nodes += r.BDDGrowth
	}
	t.Logf("region-4 EPVP rounds: %d op-cache misses, %d BDD nodes created (ceilings %d, %d)",
		misses, nodes, region4EPVPMissesCeiling, region4EPVPNodesCeiling)
	if misses > region4EPVPMissesCeiling || nodes > region4EPVPNodesCeiling {
		t.Errorf("region-4 EPVP rounds cost %d op-cache misses and %d created nodes, over the %d / %d ceilings: is Merge subtracting per route again?",
			misses, nodes, region4EPVPMissesCeiling, region4EPVPNodesCeiling)
	}

	// The same run's BDD tables: the worker's two op caches stay within
	// their budget, and the unique table stays index-only at a load of at
	// least 1/3 (8 bytes per slot, so at most 24 bytes per live node; a
	// table storing its keys again reads 24–48).
	p := eng.Space.M.Profile()
	t.Logf("region-4 EPVP tables: %d op-cache slots (ceiling %d), %d unique-table bytes for %d live nodes (%.1f per node, ceiling 24)",
		p.OpCacheSlots, 2*bdd.OpCacheMaxSlots, p.UniqueBytes, p.LiveNodes, float64(p.UniqueBytes)/float64(p.LiveNodes))
	if p.OpCacheSlots > 2*bdd.OpCacheMaxSlots {
		t.Errorf("region-4 EPVP worker holds %d op-cache slots, over 2 × the %d-slot budget: does a cache grow past it again?",
			p.OpCacheSlots, bdd.OpCacheMaxSlots)
	}
	if p.UniqueBytes > 24*p.LiveNodes {
		t.Errorf("region-4 unique table takes %d bytes for %d live nodes, over 24 per node: does it store keys again, or run below 1/3 load?",
			p.UniqueBytes, p.LiveNodes)
	}

	_, rank0 := eng.Space.M.UniqueStats()
	spf.RankLengths(eng, cp)
	_, spf0 := eng.Space.M.UniqueStats()
	t.Logf("region-4 block ranking created %d BDD nodes (ceiling 0)", spf0-rank0)
	if spf0 != rank0 {
		t.Errorf("ranking the region-4 data-plane block created %d BDD nodes, want none: does it restrict the route sets again instead of reading their length cofactors?",
			spf0-rank0)
	}
	spf.Run(eng, cp)
	_, spf1 := eng.Space.M.UniqueStats()
	t.Logf("region-4 SPF created %d BDD nodes (ceiling %d)", spf1-spf0, region4SPFNodesCeiling)
	if spf1-spf0 > region4SPFNodesCeiling {
		t.Errorf("region-4 SPF created %d BDD nodes, over the %d-node ceiling: does the FIB convert per route, or fold its priority groups linearly, again?",
			spf1-spf0, region4SPFNodesCeiling)
	}

	fullOldText, err := netgen.Dataset("full-old", 0)
	if err != nil {
		t.Fatal(err)
	}
	fullOld, err := expresso.Load(fullOldText)
	if err != nil {
		t.Fatal(err)
	}
	eng = epvp.New(fullOld.Topo, epvp.FullMode())
	eng.Workers, eng.Trace = 1, telemetry.NewTracer()
	start := time.Now()
	cp = eng.Run()
	wall := time.Since(start)
	var mergeHits, mergeLookups int64
	misses = 0
	for _, r := range eng.Trace.Finish().EPVPRounds {
		misses += r.ITEMisses
		mergeHits += r.MergeHits
		mergeLookups += r.MergeHits + r.MergeMisses
	}
	t.Logf("full-old EPVP rounds: %d op-cache misses (ceiling %d), merge memo %d hits of %d lookups, %s wall",
		misses, fullOldEPVPMissesCeiling, mergeHits, mergeLookups, wall.Round(time.Millisecond))
	if misses > fullOldEPVPMissesCeiling {
		t.Errorf("full-old EPVP rounds cost %d op-cache misses, over the %d ceiling: does Merge still go through the run's merge memo, and does runRoots keep it across sweeps?",
			misses, fullOldEPVPMissesCeiling)
	}

	_, leak0 := eng.Space.M.UniqueStats()
	leaks := properties.CheckRouteLeak(eng, cp)
	_, leak1 := eng.Space.M.UniqueStats()
	t.Logf("full-old route-leak check: %d violations, %d BDD nodes created (ceiling %d)",
		len(leaks), leak1-leak0, fullOldLeakNodesCeiling)
	if leak1-leak0 > fullOldLeakNodesCeiling {
		t.Errorf("full-old route-leak check created %d BDD nodes, over the %d-node ceiling: does it build a witness per leaked route again instead of per reported violation?",
			leak1-leak0, fullOldLeakNodesCeiling)
	}
}

// region1DeltaWork registers text as a baseline at one worker, runs one
// traced delta adding a /24 to router's section, and returns the delta's
// summed EPVP recomputes and its SPF's computed length-slice conversions.
func region1DeltaWork(t *testing.T, text, router string) (recomputed int, conversions int64) {
	t.Helper()
	ctx := context.Background()
	props := []expresso.Kind{expresso.RouteLeakFree, expresso.RouteHijackFree, expresso.TrafficHijackFree}
	v := expresso.NewVerifier(expresso.VerifierConfig{})
	if _, _, err := v.RegisterBaseline(ctx, "region1", text, expresso.Options{Workers: 1, Properties: props}); err != nil {
		t.Fatal(err)
	}
	var section string
	for _, s := range config.SplitSections(text) {
		if s.Router == router {
			section = s.Text
		}
	}
	if section == "" {
		t.Fatalf("no router %s in the text", router)
	}
	tr := expresso.NewTracer()
	patch := expresso.Patch{Ops: []expresso.PatchOp{{
		Op: config.SetOp, Router: router, Config: strings.TrimRight(section, "\n") + "\nbgp network 10.200.0.0/24\n",
	}}}
	if _, _, err := v.VerifyDelta(ctx, "region1", patch, expresso.Options{Workers: 1, Properties: props, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	trace := tr.Finish()
	for _, r := range trace.EPVPRounds {
		recomputed += r.Recomputed
	}
	if trace.SPFOrder == nil {
		t.Fatal("the delta's trace has no SPF order event")
	}
	return recomputed, trace.SPFOrder.Converted
}

// allocatedBy reports the bytes one call of f allocates, after a warm-up call.
func allocatedBy(t *testing.T, f func() error) uint64 {
	t.Helper()
	if err := f(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := f(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

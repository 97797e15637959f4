package expresso

import (
	"context"
	"fmt"
	"testing"

	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/pipeline"
	"github.com/expresso-verify/expresso/internal/store"
	"github.com/expresso-verify/expresso/internal/testnet"
)

func findStage(info *RunInfo, stage string) (StageInfo, bool) {
	for _, st := range info.Stages {
		if st.Stage == stage {
			return st, true
		}
	}
	return StageInfo{}, false
}

// TestBaselineDeltaWarmAndByteIdentical is the acceptance check of the
// baseline/delta model: for a config delta on the testnet and region
// fixtures, a delta verified against a registered baseline anchors its SRC
// stage on the baseline's pinned fixed point (provenance warm, seeded by the
// baseline's SRC digest, noting the baseline and the dirty-router count) and
// produces a report byte-identical — normalized for run-dependent fields —
// to a scratch run of the patched text.
func TestBaselineDeltaWarmAndByteIdentical(t *testing.T) {
	regionBase, regionChanged := regionDelta()
	for _, tc := range []struct {
		name       string
		base, next string
		opts       Options
	}{
		{"figure4fixed-add-network", testnet.Figure4Fixed, testnet.Figure4Fixed + "bgp network 203.0.113.7/32\n", Options{Workers: 1}},
		{"figure4-to-fixed", testnet.Figure4, testnet.Figure4Fixed, Options{Workers: 1}},
		{"region1-add-network", regionBase, regionChanged,
			Options{Workers: 1, Properties: []Kind{RouteLeakFree, RouteHijackFree, TrafficHijackFree}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			v := NewVerifier(VerifierConfig{})
			rep0, info, err := v.RegisterBaseline(ctx, "prod", tc.base, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if info.Name != "prod" || info.SRCDigest == "" || info.ConfigDigest == "" {
				t.Fatalf("incomplete BaselineInfo: %+v", info)
			}
			if info.Violations != len(rep0.Violations) {
				t.Errorf("info.Violations = %d, want %d", info.Violations, len(rep0.Violations))
			}
			if _, _, err := v.RegisterBaseline(ctx, "prod", tc.base, tc.opts); err == nil {
				t.Fatal("re-registering an existing baseline name did not error")
			}

			patch := DiffConfigs(tc.base, tc.next)
			if patch.Empty() {
				t.Fatal("config change diffed to an empty patch")
			}
			rep, runInfo, err := v.VerifyDelta(ctx, "prod", patch, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			src, ok := findStage(runInfo, "src")
			if !ok {
				t.Fatalf("no SRC stage in provenance: %+v", runInfo.Stages)
			}
			if src.Status != StageWarm || src.Seed != info.SRCDigest {
				t.Fatalf("delta SRC status %q seed %q, want warm seeded by the baseline %q (stages %+v)", src.Status, src.Seed, info.SRCDigest, runInfo.Stages)
			}
			if want := fmt.Sprintf("baseline=prod dirty=%d", len(pipeline.DirtyRouters(mustLoad(t, tc.base), mustLoad(t, tc.next)))); src.Note != want {
				t.Errorf("delta SRC note = %q, want %q", src.Note, want)
			}
			if runInfo.Baseline != "prod" {
				t.Errorf("RunInfo.Baseline = %q, want %q", runInfo.Baseline, "prod")
			}
			if !rep.Converged {
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
			if got, want := normalizedJSON(t, rep), normalizedJSON(t, coldRep); got != want {
				t.Errorf("delta report differs from scratch run:\ndelta: %s\ncold:  %s", got, want)
			}
		})
	}
}

// TestBaselineSurvivesCachePressure pins the property the old opportunistic
// warm scan could not give: the baseline's converged state stays available
// whatever else the verifier runs. The registry holds its own BDD pins, so
// the runs of other networks neither free its nodes nor break the warm
// anchor.
func TestBaselineSurvivesCachePressure(t *testing.T) {
	ctx := context.Background()
	opts := Options{Workers: 1}
	base := testnet.Figure4Fixed

	v := NewVerifier(VerifierConfig{})
	_, info, err := v.RegisterBaseline(ctx, "prod", base, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Four semantically distinct configs, each converged and let go.
	for i := 0; i < 4; i++ {
		other := base + fmt.Sprintf("bgp network 198.51.100.%d/32\n", i)
		if _, _, err := v.VerifyText(ctx, other, opts); err != nil {
			t.Fatal(err)
		}
	}

	// An unchanged config under different options misses the report cache
	// but matches the baseline's SRC key exactly: the registry serves the
	// pinned artifact as a hit.
	leakOnly := Options{Workers: 1, Properties: []Kind{RouteLeakFree}}
	_, exactInfo, err := v.VerifyTextFrom(ctx, "prod", base, leakOnly)
	if err != nil {
		t.Fatal(err)
	}
	if src, _ := findStage(exactInfo, "src"); src.Status != StageHit {
		t.Errorf("exact-key SRC status = %q, want %q (note %q)", src.Status, StageHit, src.Note)
	}

	// A real delta warm-starts from the baseline.
	changed := base + "bgp network 203.0.113.9/32\n"
	rep, runInfo, err := v.VerifyDelta(ctx, "prod", DiffConfigs(base, changed), opts)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := findStage(runInfo, "src")
	if src.Status != StageWarm {
		t.Fatalf("delta SRC status = %q, want %q (stages %+v)", src.Status, StageWarm, runInfo.Stages)
	}
	if src.Seed != info.SRCDigest {
		t.Errorf("delta SRC seed = %q, want baseline digest %q", src.Seed, info.SRCDigest)
	}

	coldNet, err := Load(changed)
	if err != nil {
		t.Fatal(err)
	}
	coldRep, err := coldNet.Verify(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := normalizedJSON(t, rep), normalizedJSON(t, coldRep); got != want {
		t.Errorf("delta report differs from scratch run:\ndelta: %s\ncold:  %s", got, want)
	}

	if !v.RemoveBaseline("prod") {
		t.Error("RemoveBaseline(prod) = false, want true")
	}
	if _, ok := v.Baseline("prod"); ok {
		t.Error("baseline still resolvable after removal")
	}
}

// TestStoreGCBaselineRoots exercises `expresso store gc` end to end: the
// blobs a registered baseline's manifest references survive the sweep,
// anonymous verification artifacts are pruned, a dry run deletes nothing,
// and removing the baseline makes everything collectable.
func TestStoreGCBaselineRoots(t *testing.T) {
	ctx := context.Background()
	opts := Options{Workers: 1}
	dir := t.TempDir()

	v := NewVerifier(VerifierConfig{StoreDir: dir})
	if _, _, err := v.RegisterBaseline(ctx, "keep", testnet.Figure4Fixed, opts); err != nil {
		t.Fatal(err)
	}
	// An anonymous verification writes blobs no manifest references.
	if _, _, err := v.VerifyText(ctx, testnet.Figure4, opts); err != nil {
		t.Fatal(err)
	}
	d, ok := v.Store().(*store.Disk)
	if !ok {
		t.Fatalf("verifier store is %T, want *store.Disk", v.Store())
	}
	before := len(d.Keys())

	dry := pipeline.GCStore(d, true)
	if dry.Baselines != 1 {
		t.Fatalf("dry run saw %d baselines, want 1", dry.Baselines)
	}
	if len(dry.Kept) == 0 || len(dry.Pruned) == 0 {
		t.Fatalf("dry run kept=%d pruned=%d, want both nonzero", len(dry.Kept), len(dry.Pruned))
	}
	if got := len(d.Keys()); got != before {
		t.Fatalf("dry run changed the store: %d blobs, was %d", got, before)
	}

	res := pipeline.GCStore(d, false)
	if len(res.Pruned) != len(dry.Pruned) || res.PrunedBytes != dry.PrunedBytes {
		t.Errorf("real sweep pruned %d blobs (%d bytes), dry run predicted %d (%d bytes)",
			len(res.Pruned), res.PrunedBytes, len(dry.Pruned), dry.PrunedBytes)
	}
	after := map[string]bool{}
	for _, k := range d.Keys() {
		after[k.Stage+"/"+k.Digest] = true
	}
	for _, k := range res.Kept {
		if !after[k.Stage+"/"+k.Digest] {
			t.Errorf("kept blob %s/%s missing after sweep", k.Stage, k.Digest)
		}
	}
	for _, k := range res.Pruned {
		if after[k.Stage+"/"+k.Digest] {
			t.Errorf("pruned blob %s/%s still present after sweep", k.Stage, k.Digest)
		}
	}

	// A cold process sharing the directory still warm-starts the
	// baseline's config from disk.
	v2 := NewVerifier(VerifierConfig{StoreDir: dir})
	_, info2, err := v2.VerifyText(ctx, testnet.Figure4Fixed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s := stageStatus(info2, "src"); s != StageDisk {
		t.Errorf("baseline config SRC after gc = %q, want %q", s, StageDisk)
	}

	// Dropping the baseline drops its manifest; the next sweep collects
	// the rest.
	if !v.RemoveBaseline("keep") {
		t.Fatal("RemoveBaseline(keep) = false")
	}
	final := pipeline.GCStore(d, false)
	if final.Baselines != 0 {
		t.Errorf("final sweep saw %d baselines, want 0", final.Baselines)
	}
	if got := len(d.Keys()); got != 0 {
		t.Errorf("%d blobs survive with no baselines registered: %+v", got, d.Keys())
	}
}

// TestRegisterBaselineTraceCarriesWatermark: registration goes through the
// same driver as every other verification, so a traced registration records
// everything a traced verification does — the stage spans and the BDD
// memory footer.
func TestRegisterBaselineTraceCarriesWatermark(t *testing.T) {
	tracer := NewTracer()
	v := NewVerifier(VerifierConfig{})
	if _, _, err := v.RegisterBaseline(context.Background(), "prod", testnet.Figure4Fixed, Options{Workers: 1, Trace: tracer}); err != nil {
		t.Fatal(err)
	}
	trace := tracer.Finish()
	if trace.Watermark == nil || trace.Watermark.PeakLiveNodes == 0 {
		t.Errorf("traced registration has no watermark footer: %+v", trace.Watermark)
	}
	spans := map[string]bool{}
	for _, sp := range trace.Spans {
		spans[sp.Name] = true
	}
	for _, stage := range []string{"load", "src", "routing_analysis", "spf", "forwarding_analysis", "report"} {
		if !spans[stage] {
			t.Errorf("traced registration has no %q span", stage)
		}
	}
}

// TestEveryBaselineOwnsItsManager: a run warm-starts only from the baseline
// it names. A run that names none — an anonymous verification, or the run
// behind a registration — is cold in a manager of its own, however recent or
// compatible the fixed points the verifier holds, so it neither grows a
// baseline's manager nor queues on its run lock, and the verifier keeps its
// manager only for a registration; a delta that names a baseline
// warm-starts from that one, whatever else is registered.
func TestEveryBaselineOwnsItsManager(t *testing.T) {
	ctx := context.Background()
	opts := Options{Workers: 1}
	base, changed := regionDelta()
	v := NewVerifier(VerifierConfig{})
	live := func(name string) (int64, int) {
		var n int64 = -1
		profiles := v.BDDProfiles()
		for _, p := range profiles {
			if p.Name == name {
				n = p.Profile.LiveNodes
			}
		}
		return n, len(profiles)
	}

	_, b, err := v.RegisterBaseline(ctx, "b", base, opts)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := live("b")
	_, anon, err := v.VerifyText(ctx, changed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s := stageStatus(anon, "src"); s != StageMiss {
		t.Errorf("anonymous run SRC status = %q, want %q", s, StageMiss)
	}
	if _, _, err := v.RegisterBaseline(ctx, "c", base+"bgp network 203.0.113.1/32\n", opts); err != nil {
		t.Fatal(err)
	}
	after, _ := live("b")
	if after != before {
		t.Errorf("baseline b's manager went from %d to %d live nodes under runs that did not name it", before, after)
	}
	c, managers := live("c")
	if c < 0 || managers != 2 { // b and c; the anonymous run keeps none
		t.Errorf("BDDProfiles lists %d managers (c's live count %d), want b's and c's apart", managers, c)
	}

	// A delta naming b chains on b, not on the more recent fixed points.
	next := base + "bgp network 203.0.113.2/32\n"
	_, info, err := v.VerifyDelta(ctx, "b", DiffConfigs(base, next), opts)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := findStage(info, "src")
	if src.Status != StageWarm || src.Seed != b.SRCDigest {
		t.Errorf("named delta: src %s seed %q, want warm seeded by the baseline %q", src.Status, src.Seed, b.SRCDigest)
	}
	if want := fmt.Sprintf("baseline=b dirty=%d", len(pipeline.DirtyRouters(mustLoad(t, base), mustLoad(t, next)))); src.Note != want {
		t.Errorf("named delta note = %q, want %q", src.Note, want)
	}
	for _, st := range v.CacheStats() {
		if st.Stage == "src" && st.WarmStarts != 1 {
			t.Errorf("verifier counted %d warm starts, want 1 (the named delta)", st.WarmStarts)
		}
	}
}

// TestBaselineDeltasShareOneDataBlock: every delta against a baseline runs
// SPF in the baseline's manager, and they all use the one data-plane
// variable block that manager holds — its variable count after ten deltas
// is what it was after the first — while each delta's report stays
// byte-identical to a cold run of the same text.
func TestBaselineDeltasShareOneDataBlock(t *testing.T) {
	ctx := context.Background()
	opts := Options{Workers: 1}
	for _, fx := range []struct{ name, base string }{
		{"testnet", testnet.Figure4Fixed},
		{"region1", netgen.CSP(netgen.CSPOldRegion(1).WithPeers(3))},
	} {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			v := NewVerifier(VerifierConfig{})
			if _, _, err := v.RegisterBaseline(ctx, "prod", fx.base, opts); err != nil {
				t.Fatal(err)
			}
			b, _ := v.baselines.Get("prod")
			m := b.SRC.Eng.Space.M
			want := m.NumVars()
			for i := 0; i < 10; i++ {
				changed := fx.base + fmt.Sprintf("bgp network 203.0.113.%d/32\n", i)
				rep, info, err := v.VerifyDelta(ctx, "prod", DiffConfigs(fx.base, changed), opts)
				if err != nil {
					t.Fatal(err)
				}
				if src, _ := findStage(info, "src"); src.Status != StageWarm {
					t.Fatalf("delta %d: src %s, want warm in the baseline's manager", i, src.Status)
				}
				if spf, _ := findStage(info, "spf"); spf.Status != StageMiss {
					t.Fatalf("delta %d: spf %s, want a computed SPF stage", i, spf.Status)
				}
				if got := m.NumVars(); got != want {
					t.Fatalf("delta %d: baseline manager has %d variables, %d after registration", i, got, want)
				}
				coldNet, err := Load(changed)
				if err != nil {
					t.Fatal(err)
				}
				coldRep, err := coldNet.Verify(opts)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := normalizedJSON(t, rep), normalizedJSON(t, coldRep); got != want {
					t.Errorf("delta %d report differs from scratch run:\ndelta: %s\ncold:  %s", i, got, want)
				}
			}
		})
	}
}

func mustLoad(t *testing.T, text string) *pipeline.LoadArtifact {
	t.Helper()
	a, err := pipeline.Load(text)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

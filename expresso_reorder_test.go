package expresso

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// TestReorderDiskWarmByteIdentical: blobs exported from a manager whose
// variable order a sift has permuted restore in a fresh process to the
// report a scratch run gives. The engine never sifts, so the test sifts a
// registered baseline's manager itself (bdd.Manager.Reorder); a delta
// against the baseline then builds every stage in that manager and writes
// each through to the store (XBDD blobs carrying the sifted order), and a
// restarted verifier serves the stages from those blobs, re-imported
// under its own static order.
func TestReorderDiskWarmByteIdentical(t *testing.T) {
	base, delta := regionDelta()
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			opts := Options{Workers: workers, Properties: storeProps}
			want := scratchReport(t, delta, opts)

			dir := t.TempDir()
			v := NewVerifier(VerifierConfig{StoreDir: dir})
			if _, _, err := v.RegisterBaseline(ctx, "prod", base, opts); err != nil {
				t.Fatal(err)
			}
			// Nothing else runs on the manager, and the baseline's pins
			// root everything it keeps.
			b, _ := v.baselines.Get("prod")
			m := b.SRC.Eng.Space.M
			before := m.Order()
			m.Reorder()
			if reflect.DeepEqual(before, m.Order()) {
				t.Fatal("Reorder left the baseline's order unchanged; the test asserts nothing")
			}
			rep, info, err := v.VerifyTextFrom(ctx, "prod", delta, opts)
			if err != nil {
				t.Fatal(err)
			}
			if s := stageStatus(info, "src"); s != StageWarm {
				t.Fatalf("delta src %s, want warm in the sifted manager", s)
			}
			if got := normalizedJSON(t, rep); got != want {
				t.Fatalf("delta in the sifted manager differs from scratch:\n--- scratch ---\n%s\n--- delta ---\n%s", want, got)
			}

			// Two restarts. The first asks what the delta asked, so every
			// stage comes off disk. The second asks for other properties, so
			// both analyses run on the imported SRC and SPF graphs instead
			// of replaying stored violations: an import that misread the
			// sifted order changes its report.
			other := Options{Workers: workers, Properties: []Kind{RouteLeakFree, TrafficHijackFree, BlackHoleFree}}
			for _, o := range []struct {
				opts   Options
				stages []string
			}{{opts, persistedStages}, {other, []string{"src", "spf"}}} {
				restarted := NewVerifier(VerifierConfig{StoreDir: dir})
				rep, info, err := restarted.VerifyText(ctx, delta, o.opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, stage := range o.stages {
					if s := stageStatus(info, stage); s != StageDisk {
						t.Errorf("stage %s status = %q, want %q (stages: %+v)", stage, s, StageDisk, info.Stages)
					}
				}
				if got, want := normalizedJSON(t, rep), scratchReport(t, delta, o.opts); got != want {
					t.Errorf("%v from sifted blobs differs from scratch:\n--- scratch ---\n%s\n--- disk ---\n%s", o.opts.Properties, want, got)
				}
			}
		})
	}
}

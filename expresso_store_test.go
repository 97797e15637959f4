package expresso

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/store"
	"github.com/expresso-verify/expresso/internal/testnet"
)

// storeProps selects one property per analysis stage, so a verification
// exercises every persisted artifact: SRC, routing analysis, SPF, and
// forwarding analysis.
var storeProps = []Kind{RouteLeakFree, RouteHijackFree, TrafficHijackFree}

// persistedStages are the pipeline stages the disk tier serves.
var persistedStages = []string{"src", "routing_analysis", "spf", "forwarding_analysis"}

// scratchReport runs a store-less, cache-less verification and returns
// the normalized report — the ground truth every disk-warm run must match
// byte for byte.
func scratchReport(t *testing.T, cfg string, opts Options) string {
	t.Helper()
	rep, _, err := NewVerifier(VerifierConfig{}).VerifyText(context.Background(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return normalizedJSON(t, rep)
}

// countBlobs reports the number of committed artifact blobs under dir.
func countBlobs(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".blob") {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// mutateBlobs rewrites every committed blob under dir through mutate and
// returns how many it touched.
func mutateBlobs(t *testing.T, dir string, mutate func([]byte) []byte) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".blob") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n++
		return os.WriteFile(path, mutate(data), 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestStoreDiskWarmByteIdentical is the acceptance check of the artifact
// store: a cold process pointed at a populated store directory serves
// every pipeline stage from disk, and the deserialized artifacts produce
// a report byte-identical (normalized for run-dependent fields) to a
// from-scratch run — across worker counts and under forced reclamation
// sweeps.
func TestStoreDiskWarmByteIdentical(t *testing.T) {
	fixtures := []struct{ name, cfg string }{
		{"testnet", testnet.Figure4},
		{"region1", netgen.CSP(netgen.CSPOldRegion(1).WithPeers(3))},
	}
	for _, fx := range fixtures {
		for _, workers := range []int{1, 4} {
			for _, reclaim := range []bool{false, true} {
				fx, workers, reclaim := fx, workers, reclaim
				t.Run(fmt.Sprintf("%s-workers%d-reclaim%v", fx.name, workers, reclaim), func(t *testing.T) {
					if reclaim {
						t.Setenv("EXPRESSO_RECLAIM", "200")
					}
					ctx := context.Background()
					opts := Options{Workers: workers, Properties: storeProps}
					want := scratchReport(t, fx.cfg, opts)

					dir := t.TempDir()
					cold := NewVerifier(VerifierConfig{StoreDir: dir})
					if cold.Store() == nil {
						t.Fatal("store not attached")
					}
					if _, _, err := cold.VerifyText(ctx, fx.cfg, opts); err != nil {
						t.Fatal(err)
					}
					if n := countBlobs(t, dir); n < len(persistedStages) {
						t.Fatalf("cold run wrote %d blobs, want >= %d", n, len(persistedStages))
					}

					// A fresh Verifier simulates a restarted process: its
					// report tier is empty and it holds no baseline, so
					// everything it serves warm comes off disk.
					warm := NewVerifier(VerifierConfig{StoreDir: dir})
					rep, info, err := warm.VerifyText(ctx, fx.cfg, opts)
					if err != nil {
						t.Fatal(err)
					}
					for _, stage := range persistedStages {
						if s := stageStatus(info, stage); s != StageDisk {
							t.Errorf("stage %s status = %q, want %q (stages: %+v)", stage, s, StageDisk, info.Stages)
						}
					}
					if got := normalizedJSON(t, rep); got != want {
						t.Errorf("disk-warm report differs from scratch:\n--- scratch ---\n%s\n--- disk ---\n%s", want, got)
					}
				})
			}
		}
	}
}

// TestStoreLegacyBlockOrderRestores: a store whose SPF and forwarding
// blobs were written from a manager with the legacy data-plane block order
// (shortest length topmost — what every store written before the block was
// re-levelled holds) restores under today's code to a report byte-identical
// to a scratch run. The blobs carry their order, so the restart installs it
// and imports node for node.
func TestStoreLegacyBlockOrderRestores(t *testing.T) {
	ctx := context.Background()
	for _, fx := range []struct{ name, cfg string }{
		{"testnet", testnet.Figure4},
		{"region1", netgen.CSP(netgen.CSPOldRegion(1).WithPeers(3))},
	} {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			opts := Options{Workers: 1, Properties: storeProps}
			want := scratchReport(t, fx.cfg, opts)

			// Converge SRC alone and hold it as a baseline, give its manager
			// the legacy block, then let SPF and the forwarding analysis build
			// and persist on top of it.
			dir := t.TempDir()
			legacy := NewVerifier(VerifierConfig{StoreDir: dir})
			routingOnly := Options{Workers: 1, Properties: []Kind{RouteLeakFree}}
			if _, _, err := legacy.RegisterBaseline(ctx, "legacy", fx.cfg, routingOnly); err != nil {
				t.Fatal(err)
			}
			shortestFirst := make([]int, 33)
			for l := range shortestFirst {
				shortestFirst[l] = l
			}
			b, _ := legacy.baselines.Get("legacy")
			_, got := b.SRC.Eng.Space.DataBlock(func() []int { return shortestFirst })
			if fmt.Sprint(got) != fmt.Sprint(shortestFirst) {
				t.Fatalf("legacy block order not installed: %v", got)
			}
			rep, info, err := legacy.VerifyTextFrom(ctx, "legacy", fx.cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if s := stageStatus(info, "src"); s != StageHit {
				t.Fatalf("SRC status = %q, want the baseline's artifact", s)
			}
			if got := normalizedJSON(t, rep); got != want {
				t.Errorf("legacy-order report differs from scratch:\n--- scratch ---\n%s\n--- legacy ---\n%s", want, got)
			}

			restarted := NewVerifier(VerifierConfig{StoreDir: dir})
			rep, info, err = restarted.VerifyText(ctx, fx.cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, stage := range persistedStages {
				if s := stageStatus(info, stage); s != StageDisk {
					t.Errorf("stage %s status = %q, want %q", stage, s, StageDisk)
				}
			}
			if got := normalizedJSON(t, rep); got != want {
				t.Errorf("report restored from a legacy-order store differs from scratch:\n--- scratch ---\n%s\n--- disk ---\n%s", want, got)
			}
			// Registration restores the fixed point from the store once more,
			// and holds it.
			if _, _, err := restarted.RegisterBaseline(ctx, "restarted", fx.cfg, opts); err != nil {
				t.Fatal(err)
			}
			b, _ = restarted.baselines.Get("restarted")
			if _, got := b.SRC.Eng.Space.DataBlock(nil); fmt.Sprint(got) != fmt.Sprint(shortestFirst) {
				t.Errorf("restart did not adopt the blob's block order: %v", got)
			}
		})
	}
}

// TestStoreSecondVerifierSkipsRecompute pins the replica scenario: the
// second Verifier sharing a store directory reads everything and writes
// nothing back (disk-served artifacts are not re-persisted).
func TestStoreSecondVerifierSkipsRecompute(t *testing.T) {
	ctx := context.Background()
	cfg := netgen.CSP(netgen.CSPOldRegion(1).WithPeers(3))
	opts := Options{Workers: 1, Properties: storeProps}
	dir := t.TempDir()

	v1 := NewVerifier(VerifierConfig{StoreDir: dir})
	rep1, _, err := v1.VerifyText(ctx, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	st1, ok := v1.StoreTraffic()
	if !ok || st1.Writes < int64(len(persistedStages)) {
		t.Fatalf("first replica store traffic = %+v, want >= %d writes", st1, len(persistedStages))
	}

	v2 := NewVerifier(VerifierConfig{StoreDir: dir})
	rep2, info2, err := v2.VerifyText(ctx, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range persistedStages {
		if s := stageStatus(info2, stage); s != StageDisk {
			t.Errorf("second replica stage %s status = %q, want %q", stage, s, StageDisk)
		}
	}
	st2, _ := v2.StoreTraffic()
	if st2.Hits < int64(len(persistedStages)) {
		t.Errorf("second replica store hits = %d, want >= %d", st2.Hits, len(persistedStages))
	}
	if st2.Writes != 0 {
		t.Errorf("second replica wrote %d blobs back, want 0", st2.Writes)
	}
	if got, want := normalizedJSON(t, rep2), normalizedJSON(t, rep1); got != want {
		t.Errorf("replica reports differ:\n--- first ---\n%s\n--- second ---\n%s", want, got)
	}
}

// TestStoreCorruptBlobsRecomputeSilently flips a payload bit in every
// stored blob: the CRC-guarded reads must treat all of them as misses,
// recompute from scratch without surfacing an error, and still produce
// the correct report.
func TestStoreCorruptBlobsRecomputeSilently(t *testing.T) {
	ctx := context.Background()
	cfg := testnet.Figure4
	opts := Options{Workers: 1, Properties: storeProps}
	want := scratchReport(t, cfg, opts)
	dir := t.TempDir()

	if _, _, err := NewVerifier(VerifierConfig{StoreDir: dir}).VerifyText(ctx, cfg, opts); err != nil {
		t.Fatal(err)
	}
	if n := mutateBlobs(t, dir, func(b []byte) []byte {
		b[len(b)-1] ^= 0x40
		return b
	}); n == 0 {
		t.Fatal("no blobs to corrupt")
	}

	v := NewVerifier(VerifierConfig{StoreDir: dir})
	rep, info, err := v.VerifyText(ctx, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range persistedStages {
		if s := stageStatus(info, stage); s != StageMiss {
			t.Errorf("stage %s over corrupt store = %q, want %q", stage, s, StageMiss)
		}
	}
	if got := normalizedJSON(t, rep); got != want {
		t.Errorf("report over corrupt store differs from scratch:\n--- scratch ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestStoreVersionMismatchRecomputes rewrites every blob with a bumped
// codec version (valid frame, unknown payload format) — the decoder must
// reject it and the pipeline recompute, again without an error.
func TestStoreVersionMismatchRecomputes(t *testing.T) {
	ctx := context.Background()
	cfg := testnet.Figure4
	opts := Options{Workers: 1, Properties: storeProps}
	want := scratchReport(t, cfg, opts)
	dir := t.TempDir()

	if _, _, err := NewVerifier(VerifierConfig{StoreDir: dir}).VerifyText(ctx, cfg, opts); err != nil {
		t.Fatal(err)
	}
	mutateBlobs(t, dir, func(b []byte) []byte {
		payload, ok := store.Unframe(b)
		if !ok {
			t.Fatal("stored blob does not unframe")
		}
		// Payload layout is 4-byte magic then a uvarint codec version;
		// 0x7f is a future version in one byte.
		payload = append([]byte(nil), payload...)
		payload[4] = 0x7f
		return store.Frame(payload)
	})

	rep, info, err := NewVerifier(VerifierConfig{StoreDir: dir}).VerifyText(ctx, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range persistedStages {
		if s := stageStatus(info, stage); s != StageMiss {
			t.Errorf("stage %s over version-mismatched store = %q, want %q", stage, s, StageMiss)
		}
	}
	if got := normalizedJSON(t, rep); got != want {
		t.Errorf("report over version-mismatched store differs from scratch")
	}
}

// TestStoreMemoryEvictionKeepsDiskBlob pins the eviction interaction: a
// verification's SRC artifact — and with it everything built on it — leaves
// memory when the run returns, and its report leaves the report tier when
// the next one takes its one slot, but the disk blobs survive, and a
// re-fetch deserializes all four of them into a report byte-identical to the
// original run.
func TestStoreMemoryEvictionKeepsDiskBlob(t *testing.T) {
	fixtures := []struct{ name, cfgA, cfgB string }{
		{"testnet", testnet.Figure4, netgen.CSP(netgen.CSPOldRegion(1).WithPeers(3))},
		{"region1", netgen.CSP(netgen.CSPOldRegion(1).WithPeers(3)), testnet.Figure4},
	}
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			ctx := context.Background()
			opts := Options{Workers: 1, Properties: storeProps}
			dir := t.TempDir()
			// A single-entry report tier, so B's report evicts A's and the
			// re-fetch must go through the stages.
			v := NewVerifier(VerifierConfig{ReportCache: 1, StoreDir: dir})
			repA, _, err := v.VerifyText(ctx, fx.cfgA, opts)
			if err != nil {
				t.Fatal(err)
			}
			blobsAfterA := countBlobs(t, dir)
			if _, _, err := v.VerifyText(ctx, fx.cfgB, opts); err != nil {
				t.Fatal(err)
			}
			if n := countBlobs(t, dir); n < blobsAfterA {
				t.Errorf("memory eviction deleted disk blobs: %d -> %d", blobsAfterA, n)
			}
			rep, info, err := v.VerifyText(ctx, fx.cfgA, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, stage := range persistedStages {
				if s := stageStatus(info, stage); s != StageDisk {
					t.Errorf("re-fetched %s status = %q, want %q (stages: %+v)", stage, s, StageDisk, info.Stages)
				}
			}
			if got, want := normalizedJSON(t, rep), normalizedJSON(t, repA); got != want {
				t.Errorf("re-fetched report differs from original:\n--- original ---\n%s\n--- refetch ---\n%s", want, got)
			}
		})
	}
}

// TestStoreUnopenableDirDisablesSilently: persistence is best-effort —
// a StoreDir that cannot be created leaves the Verifier fully functional
// with no attached tier.
func TestStoreUnopenableDirDisablesSilently(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(VerifierConfig{StoreDir: blocker})
	if v.Store() != nil {
		t.Error("store attached over a plain file")
	}
	if _, ok := v.StoreTraffic(); ok {
		t.Error("StoreTraffic reported a tier that is not attached")
	}
	rep, _, err := v.VerifyText(context.Background(), testnet.Figure4, Options{Workers: 1})
	if err != nil || rep == nil {
		t.Fatalf("verification without a store failed: %v", err)
	}
}

package pipeline

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/expresso-verify/expresso/internal/automaton"
	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/epvp"
	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/properties"
	"github.com/expresso-verify/expresso/internal/store"
	"github.com/expresso-verify/expresso/internal/testnet"
	"github.com/expresso-verify/expresso/internal/wire"
)

// The blobs under testdata/ were written by the commit before the codecs
// moved onto internal/wire, from a cold all-properties run on
// testnet.Figure4: one payload per stage, the same SPF and forwarding
// payloads from a manager holding the legacy shortest-first data-plane
// block, a standalone node table and one AS-path automaton.
func golden(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func figure4Engine(t testing.TB) (*epvp.Engine, *LoadArtifact) {
	t.Helper()
	load, err := Load(testnet.Figure4)
	if err != nil {
		t.Fatal(err)
	}
	return epvp.New(load.Net, epvp.FullMode()), load
}

func sameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Errorf("%s: re-encoded payload differs from the stored one (%d vs %d bytes)", what, len(got), len(want))
	}
}

// TestGoldenBlobsRoundTrip: every payload a store may already hold decodes,
// and encodes again to the bytes it was read from — the formats did not
// move, in either direction.
func TestGoldenBlobsRoundTrip(t *testing.T) {
	for _, order := range []struct{ name, spf, forwarding string }{
		{"decision order", "spf.xspf", "forwarding.xanl"},
		{"legacy shortest-first", "spf_legacy.xspf", "forwarding_legacy.xanl"},
	} {
		t.Run(order.name, func(t *testing.T) {
			// One restart: the stages in pipeline order, in one manager.
			eng, load := figure4Engine(t)
			m := eng.Space.M
			src, err := DecodeSRC(eng, load, "src", golden(t, "src.xsrc"))
			if err != nil {
				t.Fatal(err)
			}
			sameBytes(t, "XSRC", EncodeSRC(src), golden(t, "src.xsrc"))
			routing, err := DecodeAnalysis(m, "routing", 0, golden(t, "routing.xanl"))
			if err != nil {
				t.Fatal(err)
			}
			if len(routing.Violations) != 1 {
				t.Errorf("routing violations = %d, want 1", len(routing.Violations))
			}
			sameBytes(t, "XANL routing", EncodeAnalysis(routing, m, 0), golden(t, "routing.xanl"))
			dp, err := DecodeSPF(eng, "spf", golden(t, order.spf))
			if err != nil {
				t.Fatal(err)
			}
			if len(dp.Res.PECs) != 16 {
				t.Errorf("PECs = %d, want 16", len(dp.Res.PECs))
			}
			sameBytes(t, "XSPF", EncodeSPF(dp, m), golden(t, order.spf))
			fwd, err := DecodeAnalysis(m, "forwarding", dp.Res.VarBase(), golden(t, order.forwarding))
			if err != nil {
				t.Fatal(err)
			}
			sameBytes(t, "XANL forwarding", EncodeAnalysis(fwd, m, dp.Res.VarBase()), golden(t, order.forwarding))
		})
	}

	blob := golden(t, "prefix.xbdd")
	order, err := bdd.ExportedOrder(blob)
	if err != nil {
		t.Fatal(err)
	}
	m := bdd.NewOrdered(len(order), order)
	roots, err := m.Import(blob)
	if err != nil {
		t.Fatal(err)
	}
	sameBytes(t, "XBDD", m.Export(roots...), blob)

	a, err := automaton.Import(golden(t, "aspath.xdfa"))
	if err != nil {
		t.Fatal(err)
	}
	sameBytes(t, "XDFA", a.Export(), golden(t, "aspath.xdfa"))
}

// withBase returns blob, an XSPF or XANL payload, with its stored
// data-plane base replaced by base.
func withBase(t *testing.T, blob []byte, magic string, base int) []byte {
	t.Helper()
	var head wire.Enc
	head.Magic(magic, codecVersion)
	if !bytes.HasPrefix(blob, head) {
		t.Fatalf("blob does not open with %s", magic)
	}
	_, n := binary.Uvarint(blob[len(head):])
	if n <= 0 {
		t.Fatal("blob has no stored base")
	}
	out := append(wire.Enc(nil), head...)
	out.U(uint64(base))
	return append(out, blob[len(head)+n:]...)
}

// TestStoredBaseMismatchIsCorrupt: every manager of a network holds its
// data-plane block at the same base, so an SPF or forwarding blob that
// stored another is corrupt — it fails to decode, and the stage recomputes
// the same answer instead of importing predicates onto the wrong variables.
func TestStoredBaseMismatchIsCorrupt(t *testing.T) {
	eng, _ := figure4Engine(t)
	base := eng.Space.DataBase()
	for _, shift := range []int{-1, 1, 33 * eng.Space.NumNeighbors} {
		spfBlob := withBase(t, golden(t, "spf.xspf"), spfMagic, base+shift)
		fresh, _ := figure4Engine(t)
		if _, err := DecodeSPF(fresh, "spf", spfBlob); err == nil {
			t.Errorf("SPF blob with base %d decoded into a manager whose base is %d", base+shift, base)
		}
		fwdBlob := withBase(t, golden(t, "forwarding.xanl"), analysisMagic, base+shift)
		if _, err := DecodeAnalysis(bdd.New(base+33*eng.Space.NumNeighbors), "forwarding", base, fwdBlob); err == nil {
			t.Errorf("forwarding blob with base %d decoded against base %d", base+shift, base)
		}
	}

	// A restart on blobs whose base was rewritten recomputes SPF and the
	// forwarding analysis.
	disk, err := store.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := func() *Request {
		return &Request{Load: loadT(t, netgen.CSP(netgen.CSPOldRegion(1).WithPeers(3))), Mode: epvp.FullMode(), Workers: 1,
			Properties: []properties.Kind{properties.RouteLeakFree, properties.TrafficHijackFree, properties.BlackHoleFree, properties.LoopFree}}
	}
	violations := func(out *Outcome) string {
		b, err := json.Marshal(append(append([]properties.Violation{}, out.Routing.Violations...), out.Forwarding.Violations...))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	cold, err := (&Runner{Store: disk}).Run(ctx, req())
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Forwarding.Violations) == 0 {
		t.Fatal("the fixture has no forwarding violation to recompute")
	}
	want := violations(cold)
	for _, a := range []struct{ stage, key, magic string }{
		{StageSPF, cold.SPF.Key, spfMagic},
		{StageForwarding, cold.Forwarding.Key, analysisMagic},
	} {
		data, ok := disk.Get(a.stage, DiskKey(a.key))
		if !ok {
			t.Fatalf("%s artifact was not written through", a.stage)
		}
		disk.Put(a.stage, DiskKey(a.key), withBase(t, data, a.magic, cold.SRC.Eng.Space.DataBase()+1))
	}
	cold.Release()

	restarted, err := (&Runner{Store: disk}).Run(ctx, req())
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Release()
	for stage, status := range map[string]string{
		StageSRC: StatusDisk, StageRouting: StatusDisk, StageSPF: StatusMiss, StageForwarding: StatusMiss,
	} {
		if got := stageStatus(restarted, stage); got != status {
			t.Errorf("stage %s = %q, want %q", stage, got, status)
		}
	}
	if got := violations(restarted); got != want {
		t.Errorf("recomputed violations differ:\n got %s\nwant %s", got, want)
	}
}

// seedMutations adds blob, a spread of its truncations and a spread of
// single-byte corruptions to a fuzz corpus.
func seedMutations(f *testing.F, blob []byte) {
	f.Add(blob)
	f.Add([]byte{})
	for i := 0; i < len(blob); i += 5 {
		f.Add(blob[:i])
		mut := append([]byte(nil), blob...)
		mut[i] ^= 1 << (i % 8)
		f.Add(mut)
		mut = append([]byte(nil), blob...)
		mut[i] = 0xFF
		f.Add(mut)
	}
}

// The three decoder fuzzers share one contract: arbitrary bytes yield an
// error or an artifact that encodes and decodes again — never a panic.

func FuzzDecodeSRC(f *testing.F) {
	seedMutations(f, golden(f, "src.xsrc"))
	f.Fuzz(func(t *testing.T, data []byte) {
		eng, load := figure4Engine(t)
		a, err := DecodeSRC(eng, load, "k", data)
		if err != nil {
			return
		}
		eng2, _ := figure4Engine(t)
		if _, err := DecodeSRC(eng2, load, "k", EncodeSRC(a)); err != nil {
			t.Fatalf("accepted payload does not survive a round trip: %v", err)
		}
	})
}

func FuzzDecodeAnalysis(f *testing.F) {
	seedMutations(f, golden(f, "routing.xanl"))
	seedMutations(f, golden(f, "forwarding.xanl"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := bdd.New(256)
		a, err := DecodeAnalysis(m, "k", 40, data)
		if err != nil {
			return
		}
		if _, err := DecodeAnalysis(bdd.New(256), "k", 40, EncodeAnalysis(a, m, 40)); err != nil {
			t.Fatalf("accepted payload does not survive a round trip: %v", err)
		}
	})
}

func FuzzDecodeSPF(f *testing.F) {
	seedMutations(f, golden(f, "spf.xspf"))
	seedMutations(f, golden(f, "spf_legacy.xspf"))
	f.Fuzz(func(t *testing.T, data []byte) {
		eng, _ := figure4Engine(t)
		a, err := DecodeSPF(eng, "k", data)
		if err != nil {
			return
		}
		eng2, _ := figure4Engine(t)
		if _, err := DecodeSPF(eng2, "k", EncodeSPF(a, eng.Space.M)); err != nil {
			t.Fatalf("accepted payload does not survive a round trip: %v", err)
		}
	})
}

// TestDeclaredCountsDoNotSizeAllocations: a 4 MiB payload that declares
// four million records — or exactly as many minimum-size records as its
// length could hold, the most a count can pass with — fails having
// allocated under 16× its size. Before counts were bounded by the bytes
// left over the record's minimum size, the first case allocated 480 MB.
func TestDeclaredCountsDoNotSizeAllocations(t *testing.T) {
	const size = 4 << 20
	eng, load := figure4Engine(t)
	head := func(magic string, fields ...uint64) wire.Enc {
		var e wire.Enc
		e.Magic(magic, codecVersion)
		for _, v := range fields {
			e.U(v)
		}
		return e
	}
	externals := uint64(len(eng.Net.Externals))
	for _, tc := range []struct {
		name   string
		head   wire.Enc // up to, not including, the count under test
		min    int
		decode func(data []byte) error
		// magicOnly: the count directly follows the magic (the automaton
		// format), so zero padding is that many valid records.
		magicOnly bool
	}{
		{"routes of one RIB", append(head(srcMagic, 1, 3, 1, externals, 1), 0), minRouteBytes, func(b []byte) error {
			_, err := DecodeSRC(eng, load, "k", b)
			return err
		}, false},
		{"violations", head(analysisMagic, 0), minViolationBytes, func(b []byte) error {
			_, err := DecodeAnalysis(eng.Space.M, "k", 0, b)
			return err
		}, false},
		{"FIBs", head(spfMagic, 0), minFIBBytes, func(b []byte) error {
			_, err := DecodeSPF(eng, "k", b)
			return err
		}, false},
		{"PECs", head(spfMagic, 0, 0), minPECBytes, func(b []byte) error {
			_, err := DecodeSPF(eng, "k", b)
			return err
		}, false},
		{"automaton states", head("XDFA"), 3, func(b []byte) error {
			_, err := automaton.Import(b)
			return err
		}, true},
	} {
		fits := uint64(size-len(tc.head)-4) / uint64(tc.min)
		for _, count := range []uint64{4 << 20, fits} {
			if tc.magicOnly && count == fits {
				continue // all-zero state records are a valid automaton
			}
			blob := append(wire.Enc(nil), tc.head...)
			blob.U(count)
			blob = append(blob, make([]byte, size-len(blob))...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.decode(blob)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s, count %d: accepted", tc.name, count)
			}
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("%s, count %d: %v — allocated %.1f× the payload", tc.name, count, err, float64(got)/size)
			if got >= 16*size {
				t.Errorf("%s, count %d: decoding a %d-byte payload allocated %d bytes (%.0f×)", tc.name, count, size, got, float64(got)/size)
			}
		}
	}
}

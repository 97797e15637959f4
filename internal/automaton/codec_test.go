package automaton

import (
	"bytes"
	"os"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	cases := []*Automaton{
		Empty(),
		EmptyWord(),
		AnyString(),
		FromWord([]Symbol{100, 200, 300}),
		FromWord([]Symbol{1}).Union(FromWord([]Symbol{2, 3})),
		AnyString().Minus(FromWord([]Symbol{42})),
		FromWord([]Symbol{7}).Concat(AnyString()),
	}
	for i, a := range cases {
		blob := a.Export()
		got, err := Import(blob)
		if err != nil {
			t.Fatalf("case %d: Import: %v", i, err)
		}
		if !got.Equals(a) {
			t.Fatalf("case %d: round trip changed the language", i)
		}
		if got.Signature() != a.Signature() {
			t.Fatalf("case %d: signature changed: %q vs %q", i, got.Signature(), a.Signature())
		}
		// The canonical minimized form must re-export identically.
		if !bytes.Equal(got.Export(), blob) {
			t.Fatalf("case %d: re-export differs", i)
		}
	}
}

func TestCodecRejectsMalformed(t *testing.T) {
	blob := FromWord([]Symbol{5, 6}).Export()
	for i := 0; i < len(blob); i++ {
		if _, err := Import(blob[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	for i := range blob {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x81
		if a, err := Import(mut); err == nil {
			// Accepted mutations must still be valid, minimal automata.
			a.Signature()
			a.ShortestLength()
		}
	}
	if _, err := Import(nil); err == nil {
		t.Fatal("nil input accepted")
	}
}

// FuzzImport: arbitrary bytes yield an error or a minimal automaton that
// exports and imports again to the same language — never a panic. Seeded
// with a converged run's AS-path blob (written by the commit before the
// decoder moved onto internal/wire) and this package's own shapes, each with
// a spread of truncations and single-byte corruptions.
func FuzzImport(f *testing.F) {
	stored, err := os.ReadFile("../pipeline/testdata/aspath.xdfa")
	if err != nil {
		f.Fatal(err)
	}
	for _, blob := range [][]byte{
		stored,
		Empty().Export(),
		AnyString().Minus(FromWord([]Symbol{42})).Export(),
		FromWord([]Symbol{1}).Union(FromWord([]Symbol{2, 3})).Export(),
	} {
		f.Add(blob)
		for i := range blob {
			f.Add(blob[:i])
			mut := append([]byte(nil), blob...)
			mut[i] ^= 1 << (i % 8)
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Import(data)
		if err != nil {
			return
		}
		a.ShortestLength()
		again, err := Import(a.Export())
		if err != nil {
			t.Fatalf("re-import of re-export failed: %v", err)
		}
		if again.Signature() != a.Signature() {
			t.Fatalf("signature changed across a round trip: %q vs %q", again.Signature(), a.Signature())
		}
	})
}

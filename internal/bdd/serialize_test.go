package bdd

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// randomGraph builds a deterministic pseudo-random collection of functions.
func randomGraph(m *Manager, seed int64, count int) []Node {
	rng := rand.New(rand.NewSource(seed))
	w := m.DefaultWorker()
	pool := []Node{False, True}
	for i := 0; i < m.NumVars(); i++ {
		pool = append(pool, m.Var(i))
	}
	for i := 0; i < count; i++ {
		a := pool[rng.Intn(len(pool))]
		b := pool[rng.Intn(len(pool))]
		var n Node
		switch rng.Intn(4) {
		case 0:
			n = w.And(a, b)
		case 1:
			n = w.Or(a, b)
		case 2:
			n = w.ITE(a, b^1, b)
		default:
			n = w.Not(a)
		}
		pool = append(pool, n)
	}
	return pool[len(pool)-count:]
}

// TestExportImportRoundTrip checks that functions survive a round trip into
// a fresh manager: same truth tables (via structural fingerprints, which are
// run-independent) and identical re-export.
func TestExportImportRoundTrip(t *testing.T) {
	m := New(12)
	roots := randomGraph(m, 1, 200)
	blob := m.Export(roots...)

	m2 := New(12)
	got, err := m2.Import(blob)
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	if len(got) != len(roots) {
		t.Fatalf("root count: got %d want %d", len(got), len(roots))
	}
	for i := range roots {
		h1, l1 := m.Fingerprint(roots[i])
		h2, l2 := m2.Fingerprint(got[i])
		if h1 != h2 || l1 != l2 {
			t.Fatalf("root %d: fingerprint mismatch after round trip", i)
		}
	}
	// Round-tripping again out of the importing manager must reproduce the
	// blob byte-for-byte: the export order is structural.
	blob2 := m2.Export(got...)
	if !bytes.Equal(blob, blob2) {
		t.Fatalf("re-export differs: %d vs %d bytes", len(blob), len(blob2))
	}
}

// TestImportIntoPopulatedManager checks hash-consing unification: importing
// into a manager that already holds the same functions returns the existing
// handles and allocates no new nodes.
func TestImportIntoPopulatedManager(t *testing.T) {
	m := New(10)
	roots := randomGraph(m, 2, 100)
	blob := m.Export(roots...)

	before := m.NumNodes()
	got, err := m.Import(blob)
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	if m.NumNodes() != before {
		t.Fatalf("import into the same manager allocated %d nodes", m.NumNodes()-before)
	}
	for i := range roots {
		if got[i] != roots[i] {
			t.Fatalf("root %d: got handle %d want %d (should unify)", i, got[i], roots[i])
		}
	}
}

// TestExportConstantsAndDuplicates covers the degenerate root lists.
func TestExportConstantsAndDuplicates(t *testing.T) {
	m := New(4)
	v := m.Var(2)
	blob := m.Export(False, True, v, v, m.Not(v))
	m2 := New(4)
	got, err := m2.Import(blob)
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	if got[0] != False || got[1] != True {
		t.Fatalf("constants did not round-trip: %v", got[:2])
	}
	if got[2] != got[3] {
		t.Fatalf("duplicate roots diverged: %v", got[2:4])
	}
	if got[4] != got[2]^1 {
		t.Fatalf("complement structure lost: %d vs %d", got[4], got[2])
	}
	if len(m2.Export()) == 0 {
		t.Fatal("empty export must still carry a header")
	}
}

// TestImportRejectsCorruption flips every byte of a valid blob and asserts
// the decoder either errors or returns structurally valid roots — and that
// truncations never pass.
func TestImportRejectsCorruption(t *testing.T) {
	m := New(8)
	roots := randomGraph(m, 3, 60)
	blob := m.Export(roots...)

	for i := range blob {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x41
		m2 := New(8)
		got, err := m2.Import(mut)
		if err != nil {
			continue
		}
		// A mutation the format cannot detect must still yield well-formed
		// nodes (mk-canonical by construction); spot-check by evaluating.
		for _, n := range got {
			m2.Fingerprint(n)
		}
	}
	for i := 0; i < len(blob); i += 7 {
		m2 := New(8)
		if _, err := m2.Import(blob[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
}

// TestImportRejectsTooFewVars: a blob whose levels exceed the target
// manager's variable range must fail cleanly.
func TestImportRejectsTooFewVars(t *testing.T) {
	m := New(16)
	f := m.And(m.Var(3), m.Var(15))
	blob := m.Export(f)
	m2 := New(8)
	if _, err := m2.Import(blob); err == nil {
		t.Fatal("import with out-of-range levels accepted")
	}
}

// v1Blob rewrites a version-2 blob exported under the IDENTITY order into
// the historical version-1 layout: same bytes minus the order section,
// version byte dropped to 1. Valid only for numVars <= 127 (single-byte
// uvarints), which the tests respect.
func v1Blob(t *testing.T, v2 []byte) []byte {
	t.Helper()
	if len(v2) < 6 || v2[4] != 2 {
		t.Fatalf("not a small v2 blob: %v", v2[:6])
	}
	numVars := int(v2[5])
	out := append([]byte(nil), v2[:4]...)
	out = append(out, 1, v2[5])
	out = append(out, v2[6+numVars:]...)
	return out
}

// TestImportV1BlobAsIdentityOrder: a version-1 blob (no order section)
// must import exactly as before — blob levels read as variable indices.
func TestImportV1BlobAsIdentityOrder(t *testing.T) {
	m := New(10)
	roots := randomGraph(m, 11, 40)
	v2 := m.Export(roots...)
	v1 := v1Blob(t, v2)

	m2 := New(10)
	got, err := m2.Import(v1)
	if err != nil {
		t.Fatalf("v1 import: %v", err)
	}
	if len(got) != len(roots) {
		t.Fatalf("root count: %d vs %d", len(got), len(roots))
	}
	for i := range roots {
		h1, l1 := m.Fingerprint(roots[i])
		h2, l2 := m2.Fingerprint(got[i])
		if h1 != h2 || l1 != l2 {
			t.Fatalf("root %d changed across v1 import", i)
		}
	}
	// The identity is not spelled out: a v1 header may declare any number
	// of variables, and nothing may be sized by it.
	huge := append([]byte("XBDD"), 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x07, 0, 0)
	if order, err := ExportedOrder(huge); order != nil || err != nil {
		t.Fatalf("ExportedOrder(v1) = %d entries, %v; want nil, nil", len(order), err)
	}
}

// TestExportImportAcrossOrders: functions exported under a sifted order
// must import — via the ITE fallback where the orders disagree — into
// managers with the identity order and with an unrelated permutation,
// preserving semantics (order-independent fingerprints prove it).
func TestExportImportAcrossOrders(t *testing.T) {
	const nv = 10
	m := New(nv)
	roots := randomGraph(m, 5, 50)
	m.Pin(roots...)
	m.Reorder(roots...)
	blob := m.Export(roots...)

	// The blob says which order it was written under; a manager that
	// installs it first imports onto the exporter's exact shape.
	written, err := ExportedOrder(blob)
	if err != nil || fmt.Sprint(written) != fmt.Sprint(m.Order()) {
		t.Fatalf("ExportedOrder = %v, %v; want the exporter's %v", written, err, m.Order())
	}
	same := NewOrdered(nv, written)
	if _, err := same.Import(blob); err != nil {
		t.Fatal(err)
	}
	m.Reclaim(roots...)
	if got, want := same.NumNodes(), m.NumNodes(); got != want {
		t.Errorf("import under the blob's own order built %d nodes, exporter holds %d", got, want)
	}

	order := []int{9, 0, 8, 1, 7, 2, 6, 3, 5, 4}
	for name, m2 := range map[string]*Manager{"identity": New(nv), "permuted": NewOrdered(nv, order)} {
		got, err := m2.Import(blob)
		if err != nil {
			t.Fatalf("%s import: %v", name, err)
		}
		for i := range roots {
			h1, l1 := m.Fingerprint(roots[i])
			h2, l2 := m2.Fingerprint(got[i])
			if h1 != h2 || l1 != l2 {
				t.Fatalf("%s: root %d changed across cross-order import", name, i)
			}
		}
	}
}

// TestImportIntoReorderedManager: a blob written under the identity order
// imports into a manager holding more variables in a scrambled order, onto
// the same variable indices.
func TestImportIntoReorderedManager(t *testing.T) {
	m := New(6)
	w := m.DefaultWorker()
	f := w.And(m.Var(0), w.Or(m.Var(4), m.NVar(5)))
	blob := m.Export(f)

	m2 := NewOrdered(10, []int{9, 3, 5, 0, 7, 2, 8, 1, 6, 4})
	got, err := m2.Import(blob)
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	want := m2.And(m2.Var(0), m2.Or(m2.Var(4), m2.NVar(5)))
	if got[0] != want {
		t.Fatalf("cross-order import: got %d want %d", got[0], want)
	}
}

// TestImportRejectsMalformedOrderSection: a v2 blob whose order section is
// not a permutation must error (a silent store miss upstream), not panic.
func TestImportRejectsMalformedOrderSection(t *testing.T) {
	m := New(8)
	blob := m.Export(m.And(m.Var(1), m.Var(6)))
	cases := map[string]func([]byte){
		"repeat":       func(b []byte) { b[6] = b[7] },
		"out-of-range": func(b []byte) { b[6] = 200 },
	}
	for name, corrupt := range cases {
		mut := append([]byte(nil), blob...)
		corrupt(mut)
		if _, err := New(8).Import(mut); err == nil {
			t.Fatalf("%s: malformed order section accepted", name)
		}
	}
	// Truncation inside the order section must also error.
	if _, err := New(8).Import(blob[:8]); err == nil {
		t.Fatal("truncated order section accepted")
	}
}

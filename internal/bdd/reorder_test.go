package bdd

import (
	"math/rand"
	"reflect"
	"testing"
)

// pairedDisjunction builds OR_i (a_i AND b_i) with a_i = Var(i) and
// b_i = Var(n+i): exponential under the identity (all-a's-then-all-b's)
// order, linear when each a_i sits next to its b_i — the canonical
// sifting workload.
func pairedDisjunction(m *Manager, n int) Node {
	f := False
	for i := 0; i < n; i++ {
		f = m.Or(f, m.And(m.Var(i), m.Var(n+i)))
	}
	return f
}

// evalPaired is the reference semantics of pairedDisjunction.
func evalPaired(n int, assign map[int]bool) bool {
	for i := 0; i < n; i++ {
		if assign[i] && assign[n+i] {
			return true
		}
	}
	return false
}

func TestReorderShrinksPairedDisjunction(t *testing.T) {
	const n = 8
	m := New(2 * n)
	f := pairedDisjunction(m, n)
	m.Pin(f)
	before := m.NumNodes()
	hiB, loB := m.Fingerprint(f)

	res := m.Reorder(f)
	after := m.NumNodes()
	if after >= before {
		t.Fatalf("reorder did not shrink: before=%d after=%d (result %+v)", before, after, res)
	}
	if res.Freed != res.NodesBefore-res.NodesAfter {
		t.Errorf("Freed=%d, want NodesBefore-NodesAfter=%d", res.Freed, res.NodesBefore-res.NodesAfter)
	}
	if res.Swaps == 0 || res.Vars == 0 {
		t.Errorf("expected swaps and vars > 0, got %+v", res)
	}
	if _, _, err := permutation(m.Order(), m.NumVars()); err != nil {
		t.Fatalf("order is not a permutation after reorder: %v", err)
	}

	// The handle must keep denoting the same function.
	if hiA, loA := m.Fingerprint(f); hiA != hiB || loA != loB {
		t.Fatalf("fingerprint changed across reorder: (%x,%x) -> (%x,%x)", hiB, loB, hiA, loA)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		assign := make(map[int]bool, 2*n)
		for v := 0; v < 2*n; v++ {
			assign[v] = rng.Intn(2) == 1
		}
		if got, want := m.Eval(f, assign), evalPaired(n, assign); got != want {
			t.Fatalf("Eval mismatch after reorder on %v: got %v want %v", assign, got, want)
		}
	}
}

func TestReorderIsDeterministic(t *testing.T) {
	build := func() ([]int, int, ReorderResult) {
		const n = 7
		m := New(2 * n)
		f := pairedDisjunction(m, n)
		m.Pin(f)
		res := m.Reorder(f)
		return m.Order(), m.NumNodes(), res
	}
	o1, n1, r1 := build()
	o2, n2, r2 := build()
	if !reflect.DeepEqual(o1, o2) || n1 != n2 || r1.Swaps != r2.Swaps || r1.Freed != r2.Freed {
		t.Fatalf("reorder not deterministic:\n  run1 order=%v nodes=%d %+v\n  run2 order=%v nodes=%d %+v",
			o1, n1, r1, o2, n2, r2)
	}
}

func TestReorderPreservesComplementHeavyFunctions(t *testing.T) {
	const nv = 10
	m := New(nv)
	// XOR chain: complement edges everywhere, plus a few mixed terms.
	f := False
	for i := 0; i < nv; i++ {
		f = xor(m, f, m.Var(i))
	}
	g := m.Or(m.And(m.Var(0), m.Not(m.Var(5))), m.And(m.Not(m.Var(2)), m.Var(7)))
	h := m.Not(m.Diff(f, g))
	m.Pin(f, g, h)
	fps := [][2]uint64{}
	for _, x := range []Node{f, g, h} {
		hi, lo := m.Fingerprint(x)
		fps = append(fps, [2]uint64{hi, lo})
	}
	m.ReorderWith(ReorderOptions{MaxVars: nv}, f, g, h)
	for k, x := range []Node{f, g, h} {
		if hi, lo := m.Fingerprint(x); hi != fps[k][0] || lo != fps[k][1] {
			t.Fatalf("fingerprint %d changed across reorder", k)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		assign := make(map[int]bool, nv)
		parity := false
		for v := 0; v < nv; v++ {
			assign[v] = rng.Intn(2) == 1
			if assign[v] {
				parity = !parity
			}
		}
		wantG := (assign[0] && !assign[5]) || (!assign[2] && assign[7])
		if got := m.Eval(f, assign); got != parity {
			t.Fatalf("xor chain broken after reorder")
		}
		if got := m.Eval(g, assign); got != wantG {
			t.Fatalf("g broken after reorder")
		}
		if got := m.Eval(h, assign); got != (!parity || wantG) {
			t.Fatalf("h broken after reorder")
		}
	}
}

func TestBuildingAfterReorderStaysCanonical(t *testing.T) {
	const n = 6
	m := New(2 * n)
	f := pairedDisjunction(m, n)
	m.Pin(f)
	m.Reorder(f)

	// Rebuilding the same function after the reorder must hash-cons onto
	// the identical handle (the rebuilt unique table is authoritative), and
	// new structure must combine correctly with the old.
	f2 := pairedDisjunction(m, n)
	if f2 != f {
		t.Fatalf("rebuild after reorder produced a different handle: %v vs %v", f2, f)
	}
	g := m.And(f, m.Var(0))
	if m.Or(g, f) != f { // absorption
		t.Fatalf("absorption law broken after reorder")
	}
	if m.And(g, m.Not(m.Var(0))) != False {
		t.Fatalf("contradiction not detected after reorder")
	}
}

func TestFingerprintOrderIndependent(t *testing.T) {
	const nv = 9
	build := func(m *Manager) Node {
		f := m.Or(
			m.And(m.Var(0), m.Var(4), m.Not(m.Var(8))),
			xor(m, m.Var(2), m.Var(6)),
			m.And(m.Not(m.Var(1)), m.Var(3)),
		)
		return f
	}
	m1 := New(nv)
	f1 := build(m1)
	order := []int{8, 3, 5, 0, 7, 2, 6, 1, 4}
	m2 := NewOrdered(nv, order)
	f2 := build(m2)
	h1, l1 := m1.Fingerprint(f1)
	h2, l2 := m2.Fingerprint(f2)
	if h1 != h2 || l1 != l2 {
		t.Fatalf("fingerprints differ across variable orders: (%x,%x) vs (%x,%x)", h1, l1, h2, l2)
	}
	// And a complement check: ¬f's fingerprint must also agree.
	h1n, l1n := m1.Fingerprint(m1.Not(f1))
	h2n, l2n := m2.Fingerprint(m2.Not(f2))
	if h1n != h2n || l1n != l2n {
		t.Fatalf("negated fingerprints differ across variable orders")
	}
}

func TestAnySatOrderIndependent(t *testing.T) {
	const nv = 8
	build := func(m *Manager) Node {
		return m.Or(
			m.And(m.Var(3), m.Not(m.Var(5)), m.Var(7)),
			m.And(m.Var(1), m.Var(2), m.Not(m.Var(6))),
		)
	}
	m1 := New(nv)
	m2 := NewOrdered(nv, []int{7, 1, 6, 0, 5, 2, 4, 3})
	w1 := m1.AnySat(build(m1))
	w2 := m2.AnySat(build(m2))
	if !reflect.DeepEqual(w1, w2) {
		t.Fatalf("AnySat witnesses differ across orders: %v vs %v", w1, w2)
	}
	if !m1.Eval(build(m1), w1) {
		t.Fatalf("witness does not satisfy the function")
	}
}

func TestSatCountOrderIndependent(t *testing.T) {
	const nv = 6
	m1 := New(nv)
	m2 := NewOrdered(nv, []int{5, 0, 3, 1, 4, 2})
	f1 := m1.Or(m1.And(m1.Var(0), m1.Var(1)), m1.Var(4))
	f2 := m2.Or(m2.And(m2.Var(0), m2.Var(1)), m2.Var(4))
	if c1, c2 := m1.SatCount(f1), m2.SatCount(f2); c1 != c2 {
		t.Fatalf("SatCount differs across orders: %v vs %v", c1, c2)
	}
	// Exact small-universe counts survive the rescaling formula.
	g1 := m1.And(m1.Var(0), m1.Var(1))
	if c := m1.SatCountVars(g1, 2); c != 1 {
		t.Fatalf("SatCountVars(a∧b, 2) = %v, want 1", c)
	}
}

func TestConvertAfterReorder(t *testing.T) {
	const n = 6
	m := New(2 * n)
	f := pairedDisjunction(m, n)
	m.Pin(f)
	m.Reorder(f)

	// After sifting, an index-monotone mapping need not be level-monotone;
	// Convert must still produce the renamed function. Map a_i -> a_{i+1}
	// style shifts inside the first block.
	mapping := map[int]int{0: 1, 1: 2, 2: 0}
	got, _ := m.DefaultWorker().Convert(f, nil, mapping)
	// Reference: build the renamed formula directly.
	want := False
	for i := 0; i < n; i++ {
		ai := i
		if nv, ok := mapping[i]; ok {
			ai = nv
		}
		want = m.Or(want, m.And(m.Var(ai), m.Var(n+i)))
	}
	if got != want {
		t.Fatalf("Convert after reorder: got %v want %v", got, want)
	}
}

func TestReorderRespectsPinsAndStats(t *testing.T) {
	const n = 5
	m := New(2 * n)
	f := pairedDisjunction(m, n)
	g := m.And(m.Var(0), m.Var(1))
	m.Pin(f)
	m.Pin(g)
	hiG, loG := m.Fingerprint(g)
	m.Reorder() // no explicit roots: pins alone must protect both
	if hi, lo := m.Fingerprint(g); hi != hiG || lo != loG {
		t.Fatalf("pinned g corrupted by reorder")
	}
	st := m.ReorderStats()
	if st.Runs != 1 {
		t.Fatalf("ReorderStats.Runs = %d, want 1", st.Runs)
	}
	if st.Last.NodesAfter != int64(m.NumNodes()) {
		t.Fatalf("Last.NodesAfter = %d, want %d", st.Last.NodesAfter, m.NumNodes())
	}
	if g2 := m.And(m.Var(0), m.Var(1)); g2 != g {
		t.Fatalf("pinned handle no longer canonical after reorder")
	}
}

func TestReorderOnEmptyAndTinyManagers(t *testing.T) {
	m := New(0)
	if res := m.Reorder(); res.Swaps != 0 {
		t.Fatalf("reorder on empty manager swapped: %+v", res)
	}
	m1 := New(1)
	x := m1.Var(0)
	m1.Pin(x)
	m1.Reorder(x)
	if !m1.Eval(x, map[int]bool{0: true}) || m1.Eval(x, map[int]bool{0: false}) {
		t.Fatalf("single variable broken by reorder")
	}
}

func TestVarLevelAndOrderAccessors(t *testing.T) {
	m := NewOrdered(4, []int{2, 0, 3, 1})
	if got := m.Order(); !reflect.DeepEqual(got, []int{2, 0, 3, 1}) {
		t.Fatalf("Order() = %v", got)
	}
	if m.var2level[2] != 0 || m.var2level[1] != 3 {
		t.Fatalf("var2level mismatch: %d %d", m.var2level[2], m.var2level[1])
	}
	if err := m.SetOrder([]int{0, 1, 2, 3}); err != nil {
		t.Fatalf("SetOrder on pristine manager: %v", err)
	}
	m.Var(0)
	if err := m.SetOrder([]int{3, 2, 1, 0}); err == nil {
		t.Fatalf("SetOrder on populated manager must error")
	}
	if err := New(3).SetOrder([]int{0, 1, 1}); err == nil {
		t.Fatalf("SetOrder with a non-permutation must error")
	}
}

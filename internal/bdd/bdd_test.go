package bdd

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstants(t *testing.T) {
	m := New(4)
	if m.Not(True) != False {
		t.Errorf("Not(True) = %v, want False", m.Not(True))
	}
	if m.Not(False) != True {
		t.Errorf("Not(False) = %v, want True", m.Not(False))
	}
	if m.And() != True {
		t.Errorf("And() = %v, want True", m.And())
	}
	if m.Or() != False {
		t.Errorf("Or() = %v, want False", m.Or())
	}
}

func TestVarBasics(t *testing.T) {
	m := New(3)
	a, b := m.Var(0), m.Var(1)
	if a == b {
		t.Fatal("distinct variables must have distinct handles")
	}
	if m.And(a, m.Not(a)) != False {
		t.Error("a AND NOT a should be False")
	}
	if m.Or(a, m.Not(a)) != True {
		t.Error("a OR NOT a should be True")
	}
	if m.NVar(0) != m.Not(a) {
		t.Error("NVar(0) should equal Not(Var(0))")
	}
	if m.And(a, b) != m.And(b, a) {
		t.Error("AND should be commutative (canonical handles)")
	}
}

func TestVarOutOfRangePanics(t *testing.T) {
	m := New(2)
	defer func() {
		if recover() == nil {
			t.Error("Var(5) should panic")
		}
	}()
	m.Var(5)
}

func TestITETruthTable(t *testing.T) {
	m := New(3)
	f, g, h := m.Var(0), m.Var(1), m.Var(2)
	ite := m.ITE(f, g, h)
	for bits := 0; bits < 8; bits++ {
		assign := map[int]bool{0: bits&4 != 0, 1: bits&2 != 0, 2: bits&1 != 0}
		want := assign[1]
		if !assign[0] {
			want = assign[2]
		}
		if got := m.Eval(ite, assign); got != want {
			t.Errorf("ITE eval %v = %v, want %v", assign, got, want)
		}
	}
}

func TestRestrict(t *testing.T) {
	m := New(3)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	f := m.Or(m.And(a, b), m.And(m.Not(a), c))
	if got := m.Restrict(f, 0, true); got != b {
		t.Errorf("Restrict(f, a=1) = %v, want b", got)
	}
	if got := m.Restrict(f, 0, false); got != c {
		t.Errorf("Restrict(f, a=0) = %v, want c", got)
	}
	// Restricting a variable not in support is a no-op.
	if got := m.Restrict(b, 0, true); got != b {
		t.Errorf("Restrict on non-support var changed node")
	}
}

func TestExistsForall(t *testing.T) {
	m := New(3)
	a, b := m.Var(0), m.Var(1)
	f := m.And(a, b)
	if got := m.Exists(f, 0); got != b {
		t.Errorf("Exists a.(a AND b) = %v, want b", got)
	}
	// Universal quantification is the dual, ¬∃¬: complemented operands
	// go through the same recursion.
	if got := m.Not(m.Exists(m.Not(f), 0)); got != False {
		t.Errorf("Forall a.(a AND b) = %v, want False", got)
	}
	g := m.Or(a, b)
	if got := m.Not(m.Exists(m.Not(g), 0)); got != b {
		t.Errorf("Forall a.(a OR b) = %v, want b", got)
	}
	if got := m.Exists(g, 0, 1); got != True {
		t.Errorf("Exists a,b.(a OR b) = %v, want True", got)
	}
}

func TestRename(t *testing.T) {
	m := New(6)
	w := m.DefaultWorker()
	a, b := m.Var(0), m.Var(1)
	f := m.And(a, m.Not(b))
	g, kept := w.Convert(f, nil, map[int]int{0: 3, 1: 4})
	want := m.And(m.Var(3), m.Not(m.Var(4)))
	if g != want || fmt.Sprint(kept) != "[3 4]" {
		t.Errorf("Rename result mismatch (kept %v)", kept)
	}
	// Swap via rename must also work (rebuilding handles ordering).
	h, _ := w.Convert(f, nil, map[int]int{0: 1, 1: 0})
	want2 := m.And(m.Var(1), m.Not(m.Var(0)))
	if h != want2 {
		t.Errorf("swap Rename result mismatch")
	}
	// Restricting in the same pass: b fixed false leaves a, renamed; an
	// image the restriction makes irrelevant is not reported kept.
	r, kept := w.Convert(m.Or(f, m.And(b, m.Var(2))), map[int]bool{1: false}, map[int]int{0: 5, 2: 3})
	if r != m.Var(5) || fmt.Sprint(kept) != "[5]" {
		t.Errorf("Convert with b=0: got %v kept %v, want variable 5 kept [5]", r, kept)
	}
}

func TestSupport(t *testing.T) {
	m := New(5)
	f := m.Or(m.And(m.Var(0), m.Var(3)), m.Var(4))
	got := m.Support(f)
	want := []int{0, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Support = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Support = %v, want %v", got, want)
		}
	}
}

func TestSatCount(t *testing.T) {
	m := New(3)
	if got := m.SatCount(True); got != 8 {
		t.Errorf("SatCount(True) = %v, want 8", got)
	}
	if got := m.SatCount(False); got != 0 {
		t.Errorf("SatCount(False) = %v, want 0", got)
	}
	a, b := m.Var(0), m.Var(1)
	if got := m.SatCount(a); got != 4 {
		t.Errorf("SatCount(a) = %v, want 4", got)
	}
	if got := m.SatCount(m.And(a, b)); got != 2 {
		t.Errorf("SatCount(a AND b) = %v, want 2", got)
	}
	if got := m.SatCount(m.Or(a, b)); got != 6 {
		t.Errorf("SatCount(a OR b) = %v, want 6", got)
	}
	if got := m.SatCount(xor(m, a, m.Var(2))); got != 4 {
		t.Errorf("SatCount(a XOR c) = %v, want 4", got)
	}
}

func TestAnySat(t *testing.T) {
	m := New(4)
	f := m.And(m.Var(1), m.Not(m.Var(3)))
	got := m.AnySat(f)
	if got == nil {
		t.Fatal("AnySat returned nil for satisfiable formula")
	}
	if !m.Eval(f, got) {
		t.Errorf("AnySat assignment %v does not satisfy f", got)
	}
	if m.AnySat(False) != nil {
		t.Error("AnySat(False) should be nil")
	}
}

func TestCube(t *testing.T) {
	m := New(4)
	c := m.Cube([]int{0, 2}, []bool{true, false})
	want := m.And(m.Var(0), m.Not(m.Var(2)))
	if c != want {
		t.Error("Cube mismatch")
	}
}

func TestUintCube(t *testing.T) {
	m := New(4)
	vars := []int{0, 1, 2, 3}
	c := m.UintCube(vars, 0b1010)
	assign := map[int]bool{0: true, 1: false, 2: true, 3: false}
	if !m.Eval(c, assign) {
		t.Error("UintCube(1010) should accept 1010")
	}
	if m.Eval(c, map[int]bool{0: true, 1: true, 2: true, 3: false}) {
		t.Error("UintCube(1010) should reject 1110")
	}
	if got := m.SatCount(c); got != 1 {
		t.Errorf("SatCount(UintCube) = %v, want 1", got)
	}
}

// randomFormula builds a random BDD over nv variables along with an
// equivalent evaluator function, for differential testing.
func randomFormula(m *Manager, r *rand.Rand, nv, depth int) (Node, func(map[int]bool) bool) {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(4) {
		case 0:
			return True, func(map[int]bool) bool { return true }
		case 1:
			return False, func(map[int]bool) bool { return false }
		default:
			v := r.Intn(nv)
			return m.Var(v), func(a map[int]bool) bool { return a[v] }
		}
	}
	l, lf := randomFormula(m, r, nv, depth-1)
	rn, rf := randomFormula(m, r, nv, depth-1)
	switch r.Intn(4) {
	case 0:
		return m.And(l, rn), func(a map[int]bool) bool { return lf(a) && rf(a) }
	case 1:
		return m.Or(l, rn), func(a map[int]bool) bool { return lf(a) || rf(a) }
	case 2:
		return xor(m, l, rn), func(a map[int]bool) bool { return lf(a) != rf(a) }
	default:
		return m.Not(l), func(a map[int]bool) bool { return !lf(a) }
	}
}

func TestRandomFormulaEquivalence(t *testing.T) {
	const nv = 6
	r := rand.New(rand.NewSource(42))
	m := New(nv)
	for trial := 0; trial < 200; trial++ {
		f, eval := randomFormula(m, r, nv, 5)
		for bits := 0; bits < 1<<nv; bits++ {
			assign := make(map[int]bool, nv)
			for i := 0; i < nv; i++ {
				assign[i] = bits&(1<<i) != 0
			}
			if m.Eval(f, assign) != eval(assign) {
				t.Fatalf("trial %d: BDD and evaluator disagree at %v", trial, assign)
			}
		}
	}
}

func TestBooleanAlgebraLaws(t *testing.T) {
	// Property-based: De Morgan, distributivity, absorption, double negation
	// on random formulas. Canonicity of ROBDDs means semantic equality is
	// handle equality.
	const nv = 5
	r := rand.New(rand.NewSource(7))
	m := New(nv)
	check := func() bool {
		a, _ := randomFormula(m, r, nv, 4)
		b, _ := randomFormula(m, r, nv, 4)
		c, _ := randomFormula(m, r, nv, 4)
		if m.Not(m.And(a, b)) != m.Or(m.Not(a), m.Not(b)) {
			return false
		}
		if m.And(a, m.Or(b, c)) != m.Or(m.And(a, b), m.And(a, c)) {
			return false
		}
		if m.Or(a, m.And(a, b)) != a {
			return false
		}
		if m.Not(m.Not(a)) != a {
			return false
		}
		if m.Diff(a, b) != m.And(a, m.Not(b)) {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestExistsIsDisjunctionOfRestrictions(t *testing.T) {
	const nv = 5
	r := rand.New(rand.NewSource(99))
	m := New(nv)
	check := func() bool {
		f, _ := randomFormula(m, r, nv, 4)
		v := r.Intn(nv)
		return m.Exists(f, v) == m.Or(m.Restrict(f, v, false), m.Restrict(f, v, true))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSatCountMatchesEnumeration(t *testing.T) {
	const nv = 6
	r := rand.New(rand.NewSource(3))
	m := New(nv)
	for trial := 0; trial < 50; trial++ {
		f, _ := randomFormula(m, r, nv, 4)
		var brute float64
		for bits := 0; bits < 1<<nv; bits++ {
			assign := make(map[int]bool, nv)
			for i := 0; i < nv; i++ {
				assign[i] = bits&(1<<i) != 0
			}
			if m.Eval(f, assign) {
				brute++
			}
		}
		if got := m.SatCount(f); got != brute {
			t.Fatalf("trial %d: SatCount = %v, brute force = %v", trial, got, brute)
		}
	}
}

func TestAddVars(t *testing.T) {
	m := New(2)
	f := m.Var(1)
	first := m.AddVarsOrdered([]int{0, 1, 2})
	if first != 2 {
		t.Errorf("AddVars returned %d, want 2", first)
	}
	if m.NumVars() != 5 {
		t.Errorf("NumVars = %d, want 5", m.NumVars())
	}
	g := m.And(f, m.Var(4))
	if m.Eval(g, map[int]bool{1: true, 4: true}) != true {
		t.Error("formula over added vars misbehaves")
	}
}

// TestAddVarsOrdered: the new block goes below every existing level in the
// caller's order, variable indices stay first+offset, and a function built
// before the call is untouched.
func TestAddVarsOrdered(t *testing.T) {
	m := NewOrdered(2, []int{1, 0})
	f := m.And(m.Var(0), m.NVar(1))
	if first := m.AddVarsOrdered([]int{2, 0, 1}); first != 2 {
		t.Fatalf("AddVarsOrdered returned %d, want 2", first)
	}
	if got, want := fmt.Sprint(m.Order()), "[1 0 4 2 3]"; got != want {
		t.Errorf("order = %s, want %s", got, want)
	}
	for v, lvl := range []int{1, 0, 3, 4, 2} {
		if got := int(m.var2level[v]); got != lvl {
			t.Errorf("var2level[%d] = %d, want %d", v, got, lvl)
		}
	}
	g := m.And(f, m.Var(4), m.NVar(2))
	if !m.Eval(g, map[int]bool{0: true, 4: true}) || m.Eval(g, map[int]bool{0: true, 4: true, 2: true}) {
		t.Error("formula over an ordered block misbehaves")
	}
	if h, l := m.Fingerprint(g); h == 0 && l == 0 {
		t.Error("no fingerprint points for the added variables")
	}
	defer func() {
		if recover() == nil {
			t.Error("a non-permutation did not panic")
		}
	}()
	m.AddVarsOrdered([]int{0, 0})
}

func TestClearCaches(t *testing.T) {
	m := New(3)
	a, b := m.Var(0), m.Var(1)
	f := m.And(a, b)
	m.ClearCaches()
	if g := m.And(a, b); g != f {
		t.Error("handles must remain stable across ClearCaches")
	}
}

func BenchmarkITEChain(b *testing.B) {
	m := New(64)
	for i := 0; i < b.N; i++ {
		f := True
		for v := 0; v < 64; v++ {
			if v%2 == 0 {
				f = m.And(f, m.Var(v))
			} else {
				f = m.Or(f, m.Var(v))
			}
		}
	}
}

package bdd

import (
	"math/rand"
	"testing"
)

// TestITETerminalNoMemo pins the contract that the ITE terminal fast
// paths (constant f, g == h, and the two constant-branch identity forms)
// resolve before any cache probe: a worker that only ever sees terminal
// calls must end with an empty memo and zero lookup counters.
func TestITETerminalNoMemo(t *testing.T) {
	m := New(4)
	f := m.Var(0)
	g := m.And(m.Var(1), m.Var(2))
	h := m.Or(m.Var(1), m.Var(3))

	w := m.NewWorker()
	cases := []struct {
		name      string
		got, want Node
	}{
		{"f=True", w.ITE(True, g, h), g},
		{"f=False", w.ITE(False, g, h), h},
		{"g==h", w.ITE(f, g, g), g},
		{"g=True,h=False", w.ITE(f, True, False), f},
		{"g=False,h=True", w.ITE(f, False, True), w.Not(f)},
		{"constants", w.ITE(True, True, False), True},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("ITE terminal case %s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if n := w.CacheSize(); n != 0 {
		t.Errorf("terminal ITE calls inserted %d memo entries, want 0", n)
	}
	if hits, misses := w.MemoStats(); hits != 0 || misses != 0 {
		t.Errorf("terminal ITE calls touched the memo: hits=%d misses=%d, want 0/0", hits, misses)
	}
}

// TestOpCacheStaysWithinBudget fills one worker's caches with more than
// four times the budget of distinct results: each must grow to
// OpCacheMaxSlots and no further. (Quadrupling while below the budget once
// carried a 2^21-slot budget to 2^22 slots.)
func TestOpCacheStaysWithinBudget(t *testing.T) {
	w := New(4).NewWorker()
	for i := int32(0); i <= 4*OpCacheMaxSlots; i++ {
		w.bin.put(i, i+1, opAnd, Node(i))
		w.ite.put(i, i+1, i+2, Node(i))
	}
	for name, c := range map[string]*opCache{"and": &w.bin, "ite": &w.ite} {
		if n := len(c.keys); n != OpCacheMaxSlots {
			t.Errorf("%s cache holds %d slots after %d distinct results, want the %d-slot budget",
				name, n, 4*OpCacheMaxSlots+1, OpCacheMaxSlots)
		}
	}
}

// TestMemoStatsSurviveClearCache pins ClearCache's documented behavior:
// it drops the memo entries but deliberately not the cumulative hit/miss
// counters, so telemetry consumers computing per-round deltas never see
// the counters move backwards across the engine's between-round clears.
func TestMemoStatsSurviveClearCache(t *testing.T) {
	m := New(8)
	w := m.NewWorker()
	f := w.And(m.Var(0), m.Var(1), m.Var(2))
	g := w.Or(m.Var(3), m.Var(4))
	_ = w.And(f, g)
	_ = w.And(f, g) // repeat: guaranteed memo hit
	hits0, misses0 := w.MemoStats()
	if misses0 == 0 || hits0 == 0 {
		t.Fatalf("setup produced no memo traffic (hits=%d misses=%d)", hits0, misses0)
	}
	if w.CacheSize() == 0 {
		t.Fatal("setup left an empty memo")
	}

	w.ClearCache()
	if n := w.CacheSize(); n != 0 {
		t.Errorf("CacheSize after ClearCache = %d, want 0", n)
	}
	hits1, misses1 := w.MemoStats()
	if hits1 != hits0 || misses1 != misses0 {
		t.Errorf("MemoStats reset by ClearCache: got %d/%d, want %d/%d (counters are cumulative)",
			hits1, misses1, hits0, misses0)
	}

	// Counters keep accumulating monotonically after the clear.
	_ = w.And(f, g)
	hits2, misses2 := w.MemoStats()
	if hits2 < hits1 || misses2 <= misses1 {
		t.Errorf("MemoStats not monotone after ClearCache: %d/%d -> %d/%d",
			hits1, misses1, hits2, misses2)
	}
}

// formula is a random predicate tree for the kernel-equivalence test.
type formula struct {
	op   byte // 'v' var, '!' not, '&' and, '|' or, '^' xor, '-' diff, '>' imp, '=' biimp
	v    int
	l, r *formula
}

func randFormula(rng *rand.Rand, nv, depth int) *formula {
	if depth == 0 || rng.Intn(4) == 0 {
		return &formula{op: 'v', v: rng.Intn(nv)}
	}
	ops := []byte{'!', '&', '|', '^', '-', '>', '='}
	op := ops[rng.Intn(len(ops))]
	f := &formula{op: op, l: randFormula(rng, nv, depth-1)}
	if op != '!' {
		f.r = randFormula(rng, nv, depth-1)
	}
	return f
}

func (f *formula) eval(assign uint) bool {
	switch f.op {
	case 'v':
		return assign&(1<<f.v) != 0
	case '!':
		return !f.l.eval(assign)
	case '&':
		return f.l.eval(assign) && f.r.eval(assign)
	case '|':
		return f.l.eval(assign) || f.r.eval(assign)
	case '^':
		return f.l.eval(assign) != f.r.eval(assign)
	case '-':
		return f.l.eval(assign) && !f.r.eval(assign)
	case '>':
		return !f.l.eval(assign) || f.r.eval(assign)
	default: // '='
		return f.l.eval(assign) == f.r.eval(assign)
	}
}

// buildKernels compiles the tree with the specialized apply kernels.
func (f *formula) buildKernels(m *Manager, w *Worker) Node {
	switch f.op {
	case 'v':
		return m.Var(f.v)
	case '!':
		return w.Not(f.l.buildKernels(m, w))
	}
	a, b := f.l.buildKernels(m, w), f.r.buildKernels(m, w)
	switch f.op {
	case '&':
		return w.And(a, b)
	case '|':
		return w.Or(a, b)
	case '^':
		return w.Or(w.Diff(a, b), w.Diff(b, a))
	case '-':
		return w.Diff(a, b)
	case '>':
		return w.Not(w.Diff(a, b))
	default:
		return w.Not(w.Or(w.Diff(a, b), w.Diff(b, a)))
	}
}

// buildITE compiles the same tree expressing every connective through the
// generic three-operand ITE, the pre-kernel formulation.
func (f *formula) buildITE(m *Manager, w *Worker) Node {
	switch f.op {
	case 'v':
		return m.Var(f.v)
	case '!':
		return w.ITE(f.l.buildITE(m, w), False, True)
	}
	a, b := f.l.buildITE(m, w), f.r.buildITE(m, w)
	switch f.op {
	case '&':
		return w.ITE(a, b, False)
	case '|':
		return w.ITE(a, True, b)
	case '^':
		return w.ITE(a, w.ITE(b, False, True), b)
	case '-':
		return w.ITE(b, False, a)
	case '>':
		return w.ITE(a, b, True)
	default:
		return w.ITE(a, b, w.ITE(b, False, True))
	}
}

// TestKernelsMatchITEAndTruthTables is the property-based equivalence
// check of the apply-kernel overhaul: random predicate trees compiled
// through the kernels and through generic ITE must hash-cons to the SAME
// handle (canonicity), and both must agree with brute-force truth-table
// evaluation of the tree over every assignment.
func TestKernelsMatchITEAndTruthTables(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, nv := range []int{3, 5, 8, 12} {
		m := New(nv)
		wk := m.NewWorker() // kernels and ITE get separate memos on purpose:
		wi := m.NewWorker() // agreement must come from the unique table alone
		for trial := 0; trial < 25; trial++ {
			f := randFormula(rng, nv, 6)
			nk := f.buildKernels(m, wk)
			ni := f.buildITE(m, wi)
			if nk != ni {
				t.Fatalf("nv=%d trial %d: kernels built %v, generic ITE built %v (canonicity broken)",
					nv, trial, nk, ni)
			}
			for assign := uint(0); assign < 1<<nv; assign++ {
				want := f.eval(assign)
				am := map[int]bool{}
				for v := 0; v < nv; v++ {
					am[v] = assign&(1<<v) != 0
				}
				if got := m.Eval(nk, am); got != want {
					t.Fatalf("nv=%d trial %d assign %b: BDD=%v, truth table=%v",
						nv, trial, assign, got, want)
				}
			}
		}
	}
}

// TestKernelStatsSplit checks that the binary-kernel memo and the ITE memo
// are counted separately and both feed the summed MemoStats.
func TestKernelStatsSplit(t *testing.T) {
	m := New(8)
	w := m.NewWorker()
	f := w.And(m.Var(0), m.Var(1), m.Var(2))
	g := w.Or(m.Var(3), m.Var(4), m.Var(5))
	h := w.Diff(m.Var(6), m.Var(7))
	_ = w.ITE(f, g, h)
	_ = w.ITE(f, g, h)
	iteHits, iteMisses, binHits, binMisses := w.iteHits, w.iteMisses, w.binHits, w.binMisses
	if binMisses == 0 {
		t.Error("binary kernels recorded no misses")
	}
	if iteMisses == 0 || iteHits == 0 {
		t.Errorf("ITE memo recorded hits=%d misses=%d, want both nonzero", iteHits, iteMisses)
	}
	sumHits, sumMisses := w.MemoStats()
	if sumHits != iteHits+binHits || sumMisses != iteMisses+binMisses {
		t.Errorf("MemoStats (%d,%d) != per-cache sums (%d,%d)",
			sumHits, sumMisses, iteHits+binHits, iteMisses+binMisses)
	}
}

// benchOperands builds two entangled 16-bit threshold predicates, the
// shape of the engine's prefix-set intersections.
func benchOperands(m *Manager) (f, g Node) {
	vars := make([]int, 16)
	hi := make([]int, 16)
	for i := range vars {
		vars[i] = i
		hi[i] = i + 8
	}
	return uintLE(m, vars, 47113), m.Not(uintLE(m, hi, 9530))
}

// BenchmarkApplyKernels measures the specialized binary kernels on cold
// memos — the per-call cost the engine pays on every fresh subproblem.
func BenchmarkApplyKernels(b *testing.B) {
	m := New(24)
	f, g := benchOperands(m)
	w := m.NewWorker()
	// Warm the unique table so the loop measures kernel recursion and memo
	// traffic, not first-construction hash-consing.
	_, _, _ = w.And(f, g), w.Or(f, g), w.Diff(f, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ClearCache()
		_ = w.And(f, g)
		_ = w.Or(f, g)
		_ = w.Diff(f, g)
	}
}

// BenchmarkApplyViaITE measures the same three connectives phrased through
// the generic three-operand entry point, the pre-overhaul call shape.
func BenchmarkApplyViaITE(b *testing.B) {
	m := New(24)
	f, g := benchOperands(m)
	w := m.NewWorker()
	_, _, _ = w.And(f, g), w.Or(f, g), w.Diff(f, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ClearCache()
		_ = w.ITE(f, g, False)
		_ = w.ITE(f, True, g)
		_ = w.ITE(g, False, f)
	}
}

// BenchmarkNegationChain measures complement-edge negation: alternating
// Not and And over complemented operands, the De Morgan traffic that
// dominated pre-complement-edge Or folds.
func BenchmarkNegationChain(b *testing.B) {
	m := New(24)
	f, g := benchOperands(m)
	w := m.NewWorker()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := f
		for j := 0; j < 64; j++ {
			x = w.Not(w.And(w.Not(x), g))
		}
	}
}

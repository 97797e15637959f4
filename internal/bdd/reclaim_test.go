package bdd

import (
	"reflect"
	"runtime"
	"testing"
)

// junkAndRoot builds a batch of threshold predicates and returns one to
// keep; the rest are garbage after the call.
func junkAndRoot(m *Manager, salt uint64) Node {
	vars := make([]int, 16)
	for i := range vars {
		vars[i] = i
	}
	root := uintLE(m, vars, 40000+salt)
	for k := uint64(0); k < 20; k++ {
		_ = uintLE(m, vars, 1000+salt*37+k*997)
	}
	return root
}

func TestReclaimFreesDeadKeepsRoots(t *testing.T) {
	m := New(16)
	root := junkAndRoot(m, 1)
	before := m.NumNodes()
	sat := m.SatCount(root)

	freed := m.Reclaim(root)
	if freed <= 0 {
		t.Fatalf("Reclaim freed %d nodes, want > 0", freed)
	}
	after := m.NumNodes()
	if after >= before {
		t.Errorf("NumNodes %d -> %d, want a decrease", before, after)
	}
	if got := m.SatCount(root); got != sat {
		t.Errorf("root SatCount changed across reclaim: %v -> %v", sat, got)
	}
	st := m.ReclaimStats()
	if st.Runs != 1 || st.Freed != int64(freed) || st.Live != int64(after) {
		t.Errorf("ReclaimStats = %+v, want Runs=1 Freed=%d Live=%d", st, freed, after)
	}
	if st.Pause <= 0 {
		t.Error("ReclaimStats.Pause not recorded")
	}
}

func TestReclaimWithoutRootsKeepsOnlyConstants(t *testing.T) {
	m := New(16)
	_ = junkAndRoot(m, 2)
	m.Reclaim()
	if n := m.NumNodes(); n != 1 {
		t.Errorf("NumNodes after rootless reclaim = %d, want 1 (the constant)", n)
	}
	// The manager is fully usable afterwards.
	x := m.And(m.Var(0), m.NVar(1))
	if m.SatCountVars(x, 2) != 1 {
		t.Error("manager broken after rootless reclaim")
	}
}

func TestPinSurvivesReclaimUntilUnpin(t *testing.T) {
	m := New(16)
	p := junkAndRoot(m, 3)
	sat := m.SatCount(p)
	m.Pin(p)
	if m.PinnedCount() != 1 {
		t.Fatalf("PinnedCount = %d, want 1", m.PinnedCount())
	}

	m.Reclaim() // no explicit roots: the pin alone must protect p
	if got := m.SatCount(p); got != sat {
		t.Errorf("pinned node damaged by reclaim: SatCount %v -> %v", sat, got)
	}

	m.Unpin(p)
	m.Reclaim()
	if n := m.NumNodes(); n != 1 {
		t.Errorf("NumNodes after unpin+reclaim = %d, want 1", n)
	}
}

func TestPinIsRefcounted(t *testing.T) {
	m := New(16)
	p := m.And(m.Var(0), m.Var(1), m.Var(2))
	sat := m.SatCount(p)
	m.Pin(p)
	m.Pin(p) // second owner
	m.Unpin(p)
	m.Reclaim()
	if got := m.SatCount(p); got != sat {
		t.Error("node with one remaining pin was collected")
	}
	m.Unpin(p)
	m.Reclaim()
	if n := m.NumNodes(); n != 1 {
		t.Errorf("NumNodes after final unpin = %d, want 1", n)
	}
}

func TestUnpinWithoutPinPanics(t *testing.T) {
	m := New(4)
	p := m.And(m.Var(0), m.Var(1))
	defer func() {
		if recover() == nil {
			t.Error("Unpin without Pin did not panic")
		}
	}()
	m.Unpin(p)
}

func TestPinConstantsIsNoop(t *testing.T) {
	m := New(4)
	m.Pin(True, False)
	if m.PinnedCount() != 0 {
		t.Error("constants were pinned")
	}
	m.Unpin(True, False) // must not panic
}

// TestReclaimHandleStability pins the central reclamation contract: live
// handles are never renumbered. The root's fingerprint, satisfying set,
// and identity under re-construction are all unchanged by a sweep.
func TestReclaimHandleStability(t *testing.T) {
	m := New(16)
	vars := make([]int, 16)
	for i := range vars {
		vars[i] = i
	}
	root := uintLE(m, vars, 31337)
	_ = junkAndRoot(m, 4)
	hi0, lo0 := m.Fingerprint(root)
	nodes0 := m.NumNodes()

	m.Reclaim(root)

	if hi, lo := m.Fingerprint(root); hi != hi0 || lo != lo0 {
		t.Errorf("fingerprint changed across reclaim: %x%x -> %x%x", hi0, lo0, hi, lo)
	}
	// Rebuilding the same function must hash-cons onto the surviving
	// handle: the compacted unique table still indexes every live node.
	if again := uintLE(m, vars, 31337); again != root {
		t.Errorf("rebuilt function = %v, want the surviving handle %v", again, root)
	}
	if m.NumNodes() >= nodes0 {
		t.Errorf("reclaim freed nothing (%d -> %d)", nodes0, m.NumNodes())
	}
}

// TestReclaimSlotReuse checks the free list: rebuilding the swept garbage
// re-cons the identical canonical set, so the live population returns to
// its pre-sweep value instead of growing the slab.
func TestReclaimSlotReuse(t *testing.T) {
	m := New(16)
	root := junkAndRoot(m, 5)
	before := m.NumNodes()
	m.Reclaim(root)
	if m.NumNodes() >= before {
		t.Fatal("sweep freed nothing")
	}
	root2 := junkAndRoot(m, 5) // identical construction
	if root2 != root {
		t.Errorf("rebuilt root = %v, want %v", root2, root)
	}
	if after := m.NumNodes(); after != before {
		t.Errorf("NumNodes after rebuild = %d, want %d (freed slots reused, same canonical set)",
			after, before)
	}
}

// TestReclaimInvalidatesWorkerMemos: a worker whose memo references swept
// nodes must not serve those entries after the sweep. The generation
// counter makes the invalidation lazy but sound.
func TestReclaimInvalidatesWorkerMemos(t *testing.T) {
	m := New(16)
	w := m.NewWorker()
	f := m.And(m.Var(0), m.Var(1))
	g := m.Or(m.Var(2), m.Var(3))
	x := w.And(f, g) // enters w's memo
	satX := m.SatCountVars(x, 4)
	gen0 := m.Gen()

	m.Reclaim(f, g) // x is dead; w's memo entry for (f,g) now dangles
	if m.Gen() == gen0 {
		t.Fatal("Reclaim did not advance the generation counter")
	}

	x2 := w.And(f, g) // must recompute, not serve the dangling entry
	if got := m.SatCountVars(x2, 4); got != satX {
		t.Errorf("recomputed And(f,g) SatCount = %v, want %v", got, satX)
	}
	for assign := uint(0); assign < 16; assign++ {
		am := map[int]bool{}
		for v := 0; v < 4; v++ {
			am[v] = assign&(1<<v) != 0
		}
		want := (am[0] && am[1]) && (am[2] || am[3])
		if got := m.Eval(x2, am); got != want {
			t.Fatalf("assign %b: Eval=%v, want %v", assign, got, want)
		}
	}
}

func TestGlobalReclaimStatsAccumulate(t *testing.T) {
	g0 := GlobalReclaimStats()
	m := New(16)
	_ = junkAndRoot(m, 6)
	freed := m.Reclaim()
	g1 := GlobalReclaimStats()
	if g1.Runs != g0.Runs+1 {
		t.Errorf("global Runs %d -> %d, want +1", g0.Runs, g1.Runs)
	}
	if g1.Freed != g0.Freed+int64(freed) {
		t.Errorf("global Freed %d -> %d, want +%d", g0.Freed, g1.Freed, freed)
	}
	if g1.Pause <= g0.Pause {
		t.Error("global Pause did not advance")
	}
}

// BenchmarkReclaim prices one sweep: mark from a live root, compact the
// unique table, rebuild the free list. The garbage is rebuilt off the
// clock each iteration.
func BenchmarkReclaim(b *testing.B) {
	m := New(16)
	vars := make([]int, 16)
	for i := range vars {
		vars[i] = i
	}
	root := uintLE(m, vars, 31337)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := uint64(0); k < 200; k++ {
			_ = uintLE(m, vars, 1000+uint64(i)*31+k*997)
		}
		b.StartTimer()
		m.Reclaim(root)
	}
}

// TestReclaimSameAtAnyParallelism pins the parallel sweep to the serial
// one: the same DAG swept with the same roots and pins under GOMAXPROCS 1
// and 4 frees the same count, leaves the same profile, and refills the
// free list in the same order, so the next nodes get the same handles. The
// DAG spans more than one free-list range and many stripes, and under
// `go test -race` this is what checks the concurrent mark.
func TestReclaimSameAtAnyParallelism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	vars := make([]int, 32)
	for i := range vars {
		vars[i] = i
	}
	bound := func(k uint64) uint64 { return (k*0x9E3779B97F4A7C15 + 12345) >> 32 }
	sweep := func(procs int) (*Manager, int) {
		m := New(len(vars))
		var roots []Node
		for k := uint64(0); k < 10000; k++ {
			f := uintLE(m, vars, bound(k))
			switch {
			case k%7 == 0:
				roots = append(roots, f)
			case k%11 == 0:
				m.Pin(f)
			}
		}
		runtime.GOMAXPROCS(procs)
		return m, m.Reclaim(roots...)
	}
	m1, freed1 := sweep(1)
	m4, freed4 := sweep(4)
	if freed1 != freed4 || freed1 == 0 {
		t.Fatalf("freed %d nodes at GOMAXPROCS 1, %d at 4; want the same, non-zero", freed1, freed4)
	}
	if slots := m1.Profile().SlabSlots; slots < 2*65536 {
		t.Fatalf("DAG has %d slab slots, too few to span several free-list ranges", slots)
	}
	if p1, p4 := m1.Profile(), m4.Profile(); !reflect.DeepEqual(p1, p4) {
		t.Fatalf("profiles differ after the sweep:\n%+v\n%+v", p1, p4)
	}
	for k := uint64(0); k < 300; k++ {
		if a, b := uintLE(m1, vars, bound(k+5000)), uintLE(m4, vars, bound(k+5000)); a != b {
			t.Fatalf("function %d after the sweep: handle %v at GOMAXPROCS 1, %v at 4", k, a, b)
		}
	}
	if n1, n4 := m1.NumNodes(), m4.NumNodes(); n1 != n4 {
		t.Fatalf("live nodes after rebuilding: %d at GOMAXPROCS 1, %d at 4", n1, n4)
	}
}

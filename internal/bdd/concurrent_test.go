package bdd

import (
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentWorkersCanonical hammers one manager from many workers
// building overlapping random formulas, then checks canonicity held: every
// worker rebuilding the same formula must land on the identical handle,
// because the hash-consed unique table is shared. Run under -race this also
// exercises the lock-striped table and the atomic node slab.
func TestConcurrentWorkersCanonical(t *testing.T) {
	const (
		nv      = 8
		nworker = 8
		rounds  = 40
	)
	m := New(nv)

	// Each round, every worker builds the same seeded formula plus some
	// private noise formulas that collide on table stripes.
	results := make([][]Node, nworker)
	var wg sync.WaitGroup
	for wi := 0; wi < nworker; wi++ {
		wi := wi
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := m.NewWorker()
			r := rand.New(rand.NewSource(int64(wi) + 1))
			out := make([]Node, 0, rounds)
			for round := 0; round < rounds; round++ {
				// Shared formula: seeded by the round only, so all workers
				// construct the same function concurrently.
				sr := rand.New(rand.NewSource(int64(round) * 7))
				f := True
				for i := 0; i < nv; i++ {
					v := m.Var(i)
					if sr.Intn(2) == 0 {
						v = w.Not(v)
					}
					switch sr.Intn(3) {
					case 0:
						f = w.And(f, v)
					case 1:
						f = w.Or(f, v)
					default:
						f = w.ITE(f, v^1, v)
					}
				}
				out = append(out, f)
				// Private noise to desynchronize the workers.
				g := m.Var(r.Intn(nv))
				for i := 0; i < 6; i++ {
					g = w.ITE(m.Var(r.Intn(nv)), g, w.Not(g))
				}
			}
			results[wi] = out
		}()
	}
	wg.Wait()

	for wi := 1; wi < nworker; wi++ {
		for round := range results[0] {
			if results[wi][round] != results[0][round] {
				t.Fatalf("round %d: worker %d handle %d != worker 0 handle %d (hash-consing broken under concurrency)",
					round, wi, results[wi][round], results[0][round])
			}
		}
	}
}

// comparatorWith is uintLE built through a worker, so goroutines can build
// it concurrently: "bits of variables 0..15 <= bound".
func comparatorWith(w *Worker, bound uint64) Node {
	m := w.Manager()
	le := True
	for i := 15; i >= 0; i-- {
		v := m.Var(i)
		if bound&(1<<(15-i)) != 0 {
			le = w.Or(w.Not(v), le)
		} else {
			le = w.Diff(le, v)
		}
	}
	return le
}

// hashConsFunction is function k of the concurrent hash-consing test: an
// ITE of three comparators whose bounds depend only on k.
func hashConsFunction(w *Worker, k int) Node {
	b := uint64(k)*0x9E3779B97F4A7C15 + 12345
	return w.ITE(comparatorWith(w, b&0xFFFF), comparatorWith(w, b>>16&0xFFFF), w.Not(comparatorWith(w, b>>32&0xFFFF)))
}

// hashConsRound has eight workers build functions ids, released together on
// every batch of eight so that they miss on the same keys at the same time;
// it checks that every worker got the same handle for each function and
// that equal fingerprints mean equal handles (one handle per function). It
// returns the handles by id.
func hashConsRound(t *testing.T, m *Manager, ids []int) map[int]Node {
	t.Helper()
	const nworker, batch = 8, 8
	workers := make([]*Worker, nworker)
	results := make([]map[int]Node, nworker)
	for wi := range workers {
		workers[wi], results[wi] = m.NewWorker(), map[int]Node{}
	}
	for lo := 0; lo < len(ids); lo += batch {
		part := ids[lo:min(lo+batch, len(ids))]
		start := make(chan struct{})
		var wg sync.WaitGroup
		for wi, w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for _, k := range part {
					results[wi][k] = hashConsFunction(w, k)
				}
			}()
		}
		close(start)
		wg.Wait()
	}
	byFP := map[[2]uint64]Node{}
	for _, k := range ids {
		n := results[0][k]
		for wi := 1; wi < nworker; wi++ {
			if results[wi][k] != n {
				t.Fatalf("function %d: worker %d got handle %d, worker 0 got %d", k, wi, results[wi][k], n)
			}
		}
		hi, lo := m.Fingerprint(n)
		if prev, ok := byFP[[2]uint64{hi, lo}]; ok && prev != n {
			t.Fatalf("function %d: handles %d and %d denote one function", k, prev, n)
		}
		byFP[[2]uint64{hi, lo}] = n
	}
	return results[0]
}

// checkSlabCensus walks the slab at a quiescent point and checks the
// counters against it: nodes created minus nodes freed equals the live
// non-constant slab nodes (UniqueStats counts the constant too), which
// equals NumNodes()−1 and the unique table's population; no filed index is
// vacant, and no reserved slot is counted live by Profile.
func checkSlabCensus(t *testing.T, m *Manager) {
	t.Helper()
	n := uint32(m.next.Load())
	vacant, _, fresh := m.vacant(n)
	isVacant := func(idx uint32) bool { return vacant[idx>>6]&(1<<(idx&63)) != 0 }
	var live int64
	for idx := uint32(1); idx < n; idx++ {
		if !isVacant(idx) {
			live++
		}
	}
	_, created := m.UniqueStats()
	freed := m.ReclaimStats().Freed
	if created-1-freed != live || live != int64(m.NumNodes()-1) {
		t.Fatalf("created %d - 1 - freed %d, live slab nodes %d, NumNodes()-1 %d: want all equal",
			created, freed, live, m.NumNodes()-1)
	}
	if fresh == 0 {
		t.Fatal("no stripe holds a reservation: the census checked nothing")
	}
	var filed int64
	for i := range m.unique {
		for j := range m.unique[i].tab.Load().slots {
			if w := m.unique[i].tab.Load().slots[j].Load(); w != 0 {
				if isVacant(uint32(w)) {
					t.Fatalf("stripe %d files vacant slot %d", i, uint32(w))
				}
				filed++
			}
		}
	}
	if filed != live {
		t.Fatalf("unique table files %d nodes, the slab holds %d", filed, live)
	}
	p := m.Profile()
	var levels int64
	for _, l := range p.Levels {
		levels += l.Nodes
	}
	if levels != p.LiveNodes-1 || p.SlabSlots != p.LiveNodes+p.FreeSlots {
		t.Fatalf("Profile: levels sum %d, live %d, slab %d, free %d: a reserved slot is counted live",
			levels, p.LiveNodes, p.SlabSlots, p.FreeSlots)
	}
}

// TestConcurrentHashConsingThroughGrowthAndSweeps starts eight workers on a
// fresh manager whose stripes hold 16 slots, so every stripe's table is
// replaced while other workers probe it lock-free; then sweeps half the
// functions and builds again, overlapping the survivors, the swept ones
// and new ones.
func TestConcurrentHashConsingThroughGrowthAndSweeps(t *testing.T) {
	m := New(16)
	for i := range m.unique {
		if n := len(m.unique[i].tab.Load().slots); n != 16 {
			t.Fatalf("stripe %d starts at %d slots, want 16", i, n)
		}
	}
	ids := func(from, to int) []int {
		out := make([]int, 0, to-from)
		for k := from; k < to; k++ {
			out = append(out, k)
		}
		return out
	}
	first := hashConsRound(t, m, ids(0, 800))
	for i := range m.unique {
		if n := len(m.unique[i].tab.Load().slots); n == 16 {
			t.Fatalf("stripe %d never grew: the round did not exercise growth", i)
		}
	}
	checkSlabCensus(t, m)

	var keep []Node
	for k := 0; k < 400; k++ {
		keep = append(keep, first[k])
	}
	if m.Reclaim(keep...) == 0 {
		t.Fatal("the sweep freed nothing")
	}
	checkSlabCensus(t, m)

	second := hashConsRound(t, m, ids(200, 1000))
	for k := 200; k < 400; k++ {
		if second[k] != first[k] {
			t.Fatalf("surviving function %d rebuilt as %d, want %d", k, second[k], first[k])
		}
	}
	checkSlabCensus(t, m)
}

// TestConcurrentFingerprint checks that Fingerprint is safe and stable when
// called from many goroutines on shared nodes.
func TestConcurrentFingerprint(t *testing.T) {
	const nv = 8
	m := New(nv)
	r := rand.New(rand.NewSource(9))
	nodes := make([]Node, 32)
	for i := range nodes {
		f, _ := randomFormula(m, r, nv, 6)
		nodes[i] = f
	}
	type fp struct{ hi, lo uint64 }
	got := make([][]fp, 8)
	var wg sync.WaitGroup
	for g := 0; g < len(got); g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]fp, len(nodes))
			for i, n := range nodes {
				hi, lo := m.Fingerprint(n)
				out[i] = fp{hi, lo}
			}
			got[g] = out
		}()
	}
	wg.Wait()
	for g := 1; g < len(got); g++ {
		for i := range nodes {
			if got[g][i] != got[0][i] {
				t.Fatalf("node %d: goroutine %d fingerprint %x != goroutine 0 %x", i, g, got[g][i], got[0][i])
			}
		}
	}
	// Distinct functions should get distinct fingerprints (128-bit hash;
	// a collision here is astronomically unlikely and means a bug).
	seen := map[fp]Node{}
	for i, n := range nodes {
		hi, lo := m.Fingerprint(n)
		k := fp{hi, lo}
		if prev, ok := seen[k]; ok && prev != n {
			t.Errorf("nodes %d and %v share fingerprint %x", i, prev, k)
		}
		seen[k] = n
	}
}

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

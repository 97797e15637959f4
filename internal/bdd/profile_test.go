package bdd

import (
	"sync"
	"testing"
)

// TestProfileLevelHistogram checks that a quiescent Profile accounts for
// every live non-constant node exactly once in the per-level histogram,
// with byte attribution at NodeBytes per node.
func TestProfileLevelHistogram(t *testing.T) {
	m := New(8)
	var roots []Node
	acc := True
	for i := 0; i < 8; i++ {
		acc = m.And(acc, xor(m, m.Var(i), m.NVar((i+3)%8)))
		roots = append(roots, acc)
	}
	p := m.Profile()
	if p.LiveNodes != int64(m.NumNodes()) {
		t.Fatalf("LiveNodes=%d, NumNodes=%d", p.LiveNodes, m.NumNodes())
	}
	if p.LiveBytes != p.LiveNodes*NodeBytes {
		t.Fatalf("LiveBytes=%d, want %d", p.LiveBytes, p.LiveNodes*NodeBytes)
	}
	var sum int64
	for _, l := range p.Levels {
		if l.Nodes <= 0 {
			t.Fatalf("empty level %d emitted", l.Level)
		}
		if l.Bytes != l.Nodes*NodeBytes {
			t.Fatalf("level %d: Bytes=%d, want %d", l.Level, l.Bytes, l.Nodes*NodeBytes)
		}
		if l.Level < 0 || l.Level >= m.NumVars() {
			t.Fatalf("level %d out of range", l.Level)
		}
		sum += l.Nodes
	}
	// Every live slot except the stored constant decides on a variable.
	if sum != p.LiveNodes-1 {
		t.Fatalf("level histogram sums to %d, want %d live non-constant nodes", sum, p.LiveNodes-1)
	}
	if p.ComplementShare < 0 || p.ComplementShare > 1 {
		t.Fatalf("ComplementShare=%v out of [0,1]", p.ComplementShare)
	}
	if p.ComplementEdges == 0 {
		// Xor chains force complemented low edges under complement-edge
		// canonical form; a zero count means the census is not looking at
		// the low bit at all.
		t.Fatalf("expected complemented low edges in an Xor-heavy BDD")
	}
	if p.UniqueUsed == 0 || p.UniqueSlots < p.UniqueUsed {
		t.Fatalf("unique occupancy %d/%d implausible", p.UniqueUsed, p.UniqueSlots)
	}
	if p.OpCacheSlots == 0 {
		t.Fatalf("op cache capacity missing")
	}
	_ = roots
}

// TestProfileCountsKeptWorkers: after a two-worker run, Profile's op-cache
// occupancy and capacity are the sums over the manager's kept workers,
// worker 0 being the default worker; a worker made with NewWorker is not
// counted, and asking for the set again creates no worker.
func TestProfileCountsKeptWorkers(t *testing.T) {
	m := New(16)
	ws := m.Workers(2)
	if len(ws) != 2 || ws[0] != m.DefaultWorker() || ws[1] == ws[0] {
		t.Fatalf("Workers(2) = %p, want the default worker %p and one more", ws, m.DefaultWorker())
	}
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			acc := False
			for k := 0; k < 16; k++ {
				acc = w.Or(acc, w.And(m.Var(k), m.Var((5*k+i+1)%16)))
				acc = w.ITE(m.Var((k+i)%16), acc, m.NVar((3*k+1)%16))
			}
		}()
	}
	wg.Wait()
	m.NewWorker().And(m.Var(1), m.Var(9), m.Var(12))

	p := m.Profile()
	var used, slots int64
	for i, w := range m.Workers(2) {
		if w != ws[i] {
			t.Fatalf("worker %d was replaced", i)
		}
		if w.CacheSize() == 0 {
			t.Fatalf("worker %d did no memoized work", i)
		}
		used += int64(w.ite.used + w.bin.used)
		slots += int64(len(w.ite.keys) + len(w.bin.keys))
	}
	if p.OpCacheUsed != used || p.OpCacheSlots != slots {
		t.Errorf("Profile op caches %d used of %d slots, the kept workers %d of %d",
			p.OpCacheUsed, p.OpCacheSlots, used, slots)
	}
	if got := m.Workers(0); len(got) != 1 || got[0] != ws[0] {
		t.Errorf("Workers(0) = %p, want the default worker alone", got)
	}
}

// TestProfileExcludesFreeList checks that slots released by Reclaim are
// not attributed to any level even though their slab contents persist.
func TestProfileExcludesFreeList(t *testing.T) {
	m := New(12)
	keep := m.And(m.Var(0), m.Var(1))
	var garbage Node = True
	for i := 2; i < 12; i++ {
		garbage = m.And(garbage, xor(m, m.Var(i), m.Var(i-1)))
	}
	before := m.NumNodes()
	freed := m.Reclaim(keep)
	if freed == 0 {
		t.Fatalf("expected the sweep to free garbage (before=%d)", before)
	}
	p := m.Profile()
	if p.FreeSlots != int64(freed) {
		t.Fatalf("FreeSlots=%d, want %d", p.FreeSlots, freed)
	}
	var sum int64
	for _, l := range p.Levels {
		sum += l.Nodes
	}
	if sum != p.LiveNodes-1 {
		t.Fatalf("histogram sums to %d, want %d (free slots must be excluded)", sum, p.LiveNodes-1)
	}
	if p.SlabSlots != p.LiveNodes+p.FreeSlots {
		t.Fatalf("SlabSlots=%d, want live %d + free %d", p.SlabSlots, p.LiveNodes, p.FreeSlots)
	}
}

// TestWatermarkPeak checks the CAS-max semantics: the watermark holds the
// largest sampled population across a grow/reclaim/regrow cycle, and the
// sample count includes Reclaim's implicit entry sample.
func TestWatermarkPeak(t *testing.T) {
	m := New(10)
	if peak, bytes, _ := m.Watermark(); peak != int64(m.NumNodes()) || bytes != peak*NodeBytes {
		t.Fatalf("unsampled watermark should report current live: got %d (%d bytes)", peak, bytes)
	}
	acc := True
	for i := 0; i < 10; i++ {
		acc = m.And(acc, xor(m, m.Var(i), m.Var((i+5)%10)))
	}
	m.NoteWatermark()
	grown := int64(m.NumNodes())
	m.Reclaim(m.Var(0))
	if int64(m.NumNodes()) >= grown {
		t.Fatalf("reclaim did not shrink the population")
	}
	peak, bytes, samples := m.Watermark()
	if peak != grown {
		t.Fatalf("peak=%d, want pre-reclaim population %d", peak, grown)
	}
	if bytes != peak*NodeBytes {
		t.Fatalf("peak bytes=%d, want %d", bytes, peak*NodeBytes)
	}
	// One explicit sample plus Reclaim's entry sample.
	if samples < 2 {
		t.Fatalf("samples=%d, want >=2", samples)
	}
	// A lower sample never regresses the peak.
	m.NoteWatermark()
	if p2, _, _ := m.Watermark(); p2 != peak {
		t.Fatalf("peak regressed from %d to %d", peak, p2)
	}
	if p := m.Profile(); p.PeakLiveNodes != peak || p.WatermarkSamples < 3 {
		t.Fatalf("Profile watermark mirror: peak=%d samples=%d", p.PeakLiveNodes, p.WatermarkSamples)
	}
}

// TestTopLevels checks the descending-by-nodes ordering and truncation.
func TestTopLevels(t *testing.T) {
	p := Profile{Levels: []LevelProfile{
		{Level: 0, Nodes: 3}, {Level: 1, Nodes: 9}, {Level: 2, Nodes: 9}, {Level: 3, Nodes: 1},
	}}
	top := p.TopLevels(3)
	if len(top) != 3 || top[0].Level != 1 || top[1].Level != 2 || top[2].Level != 0 {
		t.Fatalf("TopLevels(3) = %+v", top)
	}
	if all := p.TopLevels(0); len(all) != 4 {
		t.Fatalf("TopLevels(0) should return all levels, got %d", len(all))
	}
	// The receiver's ordering must be untouched.
	if p.Levels[0].Level != 0 {
		t.Fatalf("TopLevels mutated the receiver")
	}
}

// BenchmarkProfile prices the full-slab introspection walk on a
// million-node population — the cost the tracer pays once per traced run
// for the watermark footer. The chunked walk keeps this in single-digit
// milliseconds; regressing to per-slot atomic chunk loads shows up here
// long before it shows up in TestTraceOverhead.
func BenchmarkProfile(b *testing.B) {
	m := New(64)
	acc := True
	for i := 0; m.NumNodes() < 1_000_000; i++ {
		acc = xor(m, acc, m.And(m.Var(i%64), m.NVar((i*7+13)%64)))
	}
	b.Logf("population: %d live nodes", m.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := m.Profile()
		if p.LiveNodes == 0 {
			b.Fatal("empty profile")
		}
	}
}

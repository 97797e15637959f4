package bdd

import (
	"sort"
	"sync/atomic"
	"time"
)

// Dynamic variable reordering (Rudell-style sifting).
//
// Reorder permutes the manager's variable order in place to shrink the
// live node population: each sift candidate is moved through every level
// by adjacent-level swaps, the population is measured at each position,
// and the variable settles at its best level. A swap touches only the two
// levels involved — node handles are never renumbered, so pinned roots
// and every caller-held handle stay valid and keep denoting the same
// boolean function (only the SHAPE of the graph under them changes).
//
// Like Reclaim, Reorder requires full quiescence: no other goroutine may
// touch the Manager during the call, and goroutines resuming afterwards
// must be ordered after it. The engine invokes it only at the same
// schedule-independent barriers as reclamation (EPVP round ends, the
// pre-SPF handoff), which is what keeps reports byte-identical across
// worker counts and reorder schedules: at a quiescent point the canonical
// node set is a pure function of the verified network, so the sift
// (candidates, swap sequence, final order) is too.

// Default sifting bounds: how many variables one Reorder call sifts (the
// fattest levels first) and the transient growth factor that aborts a
// single variable's walk.
const (
	DefaultReorderVars   = 16
	DefaultReorderGrowth = 1.2
)

// ReorderOptions bound one Reorder call. The zero value selects the
// defaults above.
type ReorderOptions struct {
	// MaxVars is the maximum number of sift candidates (fattest levels
	// first); <= 0 selects DefaultReorderVars.
	MaxVars int
	// MaxGrowth aborts a variable's sift walk when the live population
	// exceeds MaxGrowth times its value at the walk's start; <= 1 selects
	// DefaultReorderGrowth.
	MaxGrowth float64
}

// ReorderResult describes one completed Reorder call.
type ReorderResult struct {
	// Swaps is the number of adjacent-level swaps executed.
	Swaps int64 `json:"swaps"`
	// Vars is the number of variables sifted.
	Vars int `json:"vars"`
	// NodesBefore/NodesAfter are the live populations after the entry
	// reclamation and at return; Freed is their difference (the gain
	// attributable to reordering alone, never negative: a variable never
	// settles worse than where it started).
	NodesBefore int64 `json:"nodes_before"`
	NodesAfter  int64 `json:"nodes_after"`
	Freed       int64 `json:"nodes_freed"`
	// Reclaimed is what the entry mark-and-sweep freed before sifting
	// (attributed to reclamation, not reordering).
	Reclaimed int64 `json:"reclaimed"`
	// Pause is the stop-the-world time, entry reclaim included.
	Pause time.Duration `json:"pause_ns"`
}

// ReorderStats are a manager's cumulative reordering counters plus the
// last run's detail.
type ReorderStats struct {
	// Runs counts completed Reorder calls; Swaps, Freed and Pause sum the
	// per-run results.
	Runs  int64         `json:"runs"`
	Swaps int64         `json:"swaps"`
	Freed int64         `json:"nodes_freed"`
	Pause time.Duration `json:"pause_ns"`
	// Last is the most recent run (zero value if none).
	Last ReorderResult `json:"last"`
}

// ReorderStats returns the cumulative reordering counters. Safe for
// concurrent use.
func (m *Manager) ReorderStats() ReorderStats {
	m.reorderMu.Lock()
	last := m.lastReorder
	m.reorderMu.Unlock()
	return ReorderStats{
		Runs:  m.roRuns.Load(),
		Swaps: m.roSwaps.Load(),
		Freed: m.roFreed.Load(),
		Pause: time.Duration(m.roPause.Load()),
		Last:  last,
	}
}

// Process-wide reordering aggregates across every Manager, mirroring the
// reclamation globals: managers come and go with verification chains,
// /metrics scrapes need monotone counters.
var (
	globalRoRuns  atomic.Int64
	globalRoSwaps atomic.Int64
	globalRoFreed atomic.Int64
	globalRoPause atomic.Int64
)

// GlobalReorderStats returns the process-wide reordering counters summed
// over all managers, past and present. Last is always zero here.
func GlobalReorderStats() ReorderStats {
	return ReorderStats{
		Runs:  globalRoRuns.Load(),
		Swaps: globalRoSwaps.Load(),
		Freed: globalRoFreed.Load(),
		Pause: time.Duration(globalRoPause.Load()),
	}
}

// Reorder sifts with the default bounds. See ReorderWith.
func (m *Manager) Reorder(roots ...Node) ReorderResult {
	return m.ReorderWith(ReorderOptions{}, roots...)
}

// ReorderWith runs one sifting pass: reclaim dead nodes rooted at roots
// (plus the Pin set), pick the variables occupying the fattest levels of
// the live histogram, and sift each through the order, settling it at the
// level that minimizes the live population. The variable order changes;
// node handles do not — every root, pin and caller-held handle keeps
// denoting the same function. The generation counter is bumped so worker
// op-caches and external handle-keyed memos invalidate lazily, exactly as
// after Reclaim.
//
// The caller must guarantee the same quiescence as Reclaim: no concurrent
// use of the Manager or any Worker, with resuming goroutines ordered
// after the call.
func (m *Manager) ReorderWith(o ReorderOptions, roots ...Node) ReorderResult {
	start := time.Now()
	if o.MaxVars <= 0 {
		o.MaxVars = DefaultReorderVars
	}
	if o.MaxGrowth <= 1 {
		o.MaxGrowth = DefaultReorderGrowth
	}
	reclaimed := m.Reclaim(roots...)
	rs := m.newReorderState(roots)
	before := rs.live

	// Sift candidates: the variables sitting on the fattest levels of the
	// post-reclaim histogram, largest first, initial level as tiebreak.
	// Everything here derives from the canonical node set, so the candidate
	// list — and the whole sift — is schedule-independent.
	type cand struct {
		v   int32
		lvl int
		n   int
	}
	cands := make([]cand, 0, len(rs.buckets))
	for l, b := range rs.buckets {
		if len(b) > 0 {
			cands = append(cands, cand{v: m.level2var[l], lvl: l, n: len(b)})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].n != cands[j].n {
			return cands[i].n > cands[j].n
		}
		return cands[i].lvl < cands[j].lvl
	})
	if len(cands) > o.MaxVars {
		cands = cands[:o.MaxVars]
	}
	for _, c := range cands {
		rs.sift(int(c.v), o.MaxGrowth)
	}

	// Re-publish the invariants the hot path relies on: merge the local
	// free stack, rebuild the unique table against the new levels, and
	// invalidate handle-keyed memos via the generation counter.
	m.freeMu.Lock()
	m.free = append(m.free, rs.free...)
	m.nFree.Store(int64(len(m.free)))
	m.freeMu.Unlock()
	m.rebuildUnique()
	m.gen.Add(1)
	m.NoteWatermark()

	after := rs.live
	res := ReorderResult{
		Swaps:       rs.swaps,
		Vars:        len(cands),
		NodesBefore: before,
		NodesAfter:  after,
		Freed:       before - after,
		Reclaimed:   int64(reclaimed),
		Pause:       time.Since(start),
	}
	m.roRuns.Add(1)
	m.roSwaps.Add(res.Swaps)
	m.roFreed.Add(res.Freed)
	m.roPause.Add(int64(res.Pause))
	globalRoRuns.Add(1)
	globalRoSwaps.Add(res.Swaps)
	globalRoFreed.Add(res.Freed)
	globalRoPause.Add(int64(res.Pause))
	m.reorderMu.Lock()
	m.lastReorder = res
	m.reorderMu.Unlock()
	return res
}

// reorderState is the scratch state of one Reorder call: true reference
// counts (edges + pins + roots) so swaps can free nodes the instant they
// die, per-level slot buckets so a swap touches only its two levels, and
// a local free stack merged back into the manager at the end.
type reorderState struct {
	m       *Manager
	rc      []int32   // per-slab-index refcount (edges + pins + roots)
	stamp   []uint32  // per-slab-index scan stamp (bucket dedup)
	scanGen uint32    // current scan stamp value
	buckets [][]int32 // per-level slot indices (may hold stale entries)
	free    []int32   // slots freed during sifting
	swaps   int64
	live    int64 // the manager's live population, tracked per create/release
}

// newReorderState scans the slab once (post-reclaim, so the vacant slots
// are exactly the dead set plus the stripes' reservations) building the
// per-level buckets and the reference counts. Every edge contributes one
// count; pins and roots contribute one each so externally held nodes can
// never be freed mid-sift.
func (m *Manager) newReorderState(roots []Node) *reorderState {
	n := uint32(m.next.Load())
	rs := &reorderState{
		m:       m,
		rc:      make([]int32, n),
		stamp:   make([]uint32, n),
		buckets: make([][]int32, m.numVars),
		live:    m.live(),
	}
	vacant, _, _ := m.vacant(n)
	for idx := uint32(1); idx < n; idx++ {
		if vacant[idx>>6]&(1<<(idx&63)) != 0 {
			continue
		}
		nd := m.slot(idx)
		lvl := nd.level
		if lvl < 0 || int(lvl) >= len(rs.buckets) {
			continue // defensive: nothing but the constant should be out of range
		}
		rs.buckets[lvl] = append(rs.buckets[lvl], int32(idx))
		rs.rc[uint32(nd.low)>>1]++
		rs.rc[uint32(nd.high)>>1]++
	}
	m.pinMu.Lock()
	for p := range m.pinned {
		rs.rc[uint32(p)>>1]++
	}
	m.pinMu.Unlock()
	for _, r := range roots {
		rs.rc[uint32(r)>>1]++
	}
	return rs
}

// grow extends the per-slot side arrays to cover idx (slots created during
// sifting may extend the slab).
func (rs *reorderState) grow(idx uint32) {
	for uint32(len(rs.rc)) <= idx {
		rs.rc = append(rs.rc, 0)
		rs.stamp = append(rs.stamp, 0)
	}
}

// scan returns the live slots currently at level l, compacting the bucket
// in place: entries whose slot has moved to another level (or died) are
// dropped, and a stamp pass removes duplicates a free/recreate cycle can
// leave behind.
func (rs *reorderState) scan(l int) []int32 {
	b := rs.buckets[l]
	out := b[:0]
	rs.scanGen++
	for _, i := range b {
		if rs.m.slot(uint32(i)).level != int32(l) {
			continue
		}
		if rs.stamp[i] == rs.scanGen {
			continue
		}
		rs.stamp[i] = rs.scanGen
		out = append(out, i)
	}
	rs.buckets[l] = out
	return out
}

// ref/deref adjust the true reference count of a handle's slot; a count
// hitting zero releases the slot immediately (cascading), so the live
// population during sifting is always exactly the reachable canonical
// set — which is what makes the per-position node counts (the sift
// metric) a pure function of the variable order.
func (rs *reorderState) ref(n Node) {
	if idx := uint32(n) >> 1; idx != 0 {
		rs.rc[idx]++
	}
}

func (rs *reorderState) deref(n Node) {
	idx := uint32(n) >> 1
	if idx == 0 {
		return
	}
	if rs.rc[idx]--; rs.rc[idx] == 0 {
		rs.release(idx)
	}
}

// release frees a dead slot: dead-marks its level so stale bucket entries
// filter out, drops its fingerprint memo (the slot may be reused for a
// different function before the run ends), parks the slot on the local
// free stack, and derefs its children.
func (rs *reorderState) release(idx uint32) {
	nd := rs.m.slot(idx)
	lo, hi := nd.low, nd.high
	nd.level = -1
	rs.m.fps.Delete(Node(idx << 1))
	rs.m.dropped.Add(1)
	rs.live--
	rs.free = append(rs.free, int32(idx))
	rs.deref(lo)
	rs.deref(hi)
}

// create claims a slot for a new node at the given level, preferring slots
// freed earlier in this run over stripe 0's reservation, and refs its
// children. The unique table is NOT updated — it is stale throughout the
// run and rebuilt at the end; in-run uniqueness is the swap's local map.
func (rs *reorderState) create(level int32, low, high Node) Node {
	m := rs.m
	var idx uint32
	if n := len(rs.free); n > 0 {
		idx = uint32(rs.free[n-1])
		rs.free = rs.free[:n-1]
	} else {
		st := &m.unique[0]
		st.mu.Lock()
		idx = m.claim(st)
		st.mu.Unlock()
	}
	*m.slot(idx) = node{level: level, low: low, high: high}
	m.baseCreated.Add(1)
	rs.live++
	h := Node(idx << 1)
	rs.grow(idx)
	rs.rc[idx] = 0
	rs.stamp[idx] = 0
	rs.ref(low)
	rs.ref(high)
	rs.buckets[level] = append(rs.buckets[level], int32(idx))
	return h
}

// swap exchanges the variables at levels l and l+1 in place. Writing x for
// the variable leaving level l and y for the one leaving l+1:
//
//   - level-l+1 (y) nodes hoist to level l unchanged — their graphs never
//     mention x (x was above them), so only their label moves;
//   - level-l (x) nodes with no y child are independent of y and sink to
//     level l+1 unchanged;
//   - the remaining level-l nodes depend on both: each is rewritten in
//     place from x(f0,f1) to y(x(f00,f10), x(f01,f11)) — the same
//     function with the decisions transposed. The slot (and handle) of the
//     rewritten node is preserved, so parents above level l never change,
//     which is what confines the whole swap to two levels.
//
// Complement edges survive untouched: a node's high edge is a stored
// (regular) edge, so the new high child x(f01,f11) is built from regular
// cofactors and stays regular — the canonical no-complemented-high
// invariant holds for the in-place write without any parent fixup.
func (rs *reorderState) swap(l int) {
	m := rs.m
	lvlX, lvlY := int32(l), int32(l+1)
	xs := rs.scan(l)
	ys := rs.scan(l + 1)
	vx, vy := m.level2var[l], m.level2var[l+1]
	m.level2var[l], m.level2var[l+1] = vy, vx
	m.var2level[vx], m.var2level[vy] = lvlY, lvlX
	rs.swaps++
	if len(xs) == 0 {
		// No x nodes: y nodes hoist, nothing else moves.
		for _, i := range ys {
			m.slot(uint32(i)).level = lvlX
		}
		rs.buckets[l], rs.buckets[l+1] = ys, xs[:0]
		return
	}

	// Classify x nodes while their children still read the old levels.
	deps := make([]int32, 0, len(xs))
	indep := make([]int32, 0, len(xs))
	for _, i := range xs {
		nd := m.slot(uint32(i))
		if m.slot(uint32(nd.low)>>1).level == lvlY || m.slot(uint32(nd.high)>>1).level == lvlY {
			deps = append(deps, i)
		} else {
			indep = append(indep, i)
		}
	}

	// Hoist y to level l; sink independents to l+1, seeding the local
	// unique map for the level (after these two moves, level l+1 holds
	// exactly the independents, so the map plus created-node inserts keeps
	// in-run canonicity without touching the striped table).
	for _, i := range ys {
		m.slot(uint32(i)).level = lvlX
	}
	uniq := make(map[[2]Node]Node, len(indep)+2*len(deps))
	for _, i := range indep {
		nd := m.slot(uint32(i))
		nd.level = lvlY
		uniq[[2]Node{nd.low, nd.high}] = Node(uint32(i) << 1)
	}

	bx := make([]int32, 0, len(ys)+len(deps))
	bx = append(bx, ys...)
	bx = append(bx, deps...)
	by := make([]int32, 0, len(indep))
	by = append(by, indep...)
	rs.buckets[l], rs.buckets[l+1] = bx, by

	mkAt := func(low, high Node) Node {
		if low == high {
			return low
		}
		c := high & 1
		low ^= c
		high ^= c
		key := [2]Node{low, high}
		h, ok := uniq[key]
		if !ok {
			h = rs.create(lvlY, low, high)
			uniq[key] = h
		}
		return h ^ c
	}

	// Rewrite the dependents. Children at the old level l+1 were hoisted
	// above, so a y child is now recognized by slot level == lvlX. The
	// stored high edge f1 is regular; the low edge f0 carries the node's
	// complement discipline and may be complemented, which the ^c on its
	// cofactors resolves.
	for _, i := range deps {
		nd := m.slot(uint32(i))
		f0, f1 := nd.low, nd.high
		var f00, f01, f10, f11 Node
		if s := m.slot(uint32(f0) >> 1); s.level == lvlX {
			c := f0 & 1
			f00, f01 = s.low^c, s.high^c
		} else {
			f00, f01 = f0, f0
		}
		if s := m.slot(uint32(f1) >> 1); s.level == lvlX {
			f10, f11 = s.low, s.high
		} else {
			f10, f11 = f1, f1
		}
		h0 := mkAt(f00, f10)
		h1 := mkAt(f01, f11)
		rs.ref(h0)
		rs.ref(h1)
		nd.low, nd.high = h0, h1
		rs.deref(f0)
		rs.deref(f1)
	}
}

// sift moves variable v through the whole order by adjacent swaps — down
// to the bottom, up to the top — tracking the live population at every
// position, then settles it at the best one (strictly smallest, earliest
// visit wins ties, so the walk is deterministic). A walk direction aborts
// early when the population exceeds maxGrowth times its starting value;
// the settle pass then walks back, and because a swap is an involution
// and the node set at a given order is canonical, the population at the
// settled level is exactly what was measured there.
func (rs *reorderState) sift(v int, maxGrowth float64) {
	m := rs.m
	bottom := m.numVars - 1
	startLive := rs.live
	limit := int64(float64(startLive) * maxGrowth)
	best := startLive
	bestLvl := int(m.var2level[v])
	for int(m.var2level[v]) < bottom {
		rs.swap(int(m.var2level[v]))
		live := rs.live
		if live < best {
			best, bestLvl = live, int(m.var2level[v])
		}
		if live > limit {
			break
		}
	}
	for int(m.var2level[v]) > 0 {
		rs.swap(int(m.var2level[v]) - 1)
		live := rs.live
		if live < best {
			best, bestLvl = live, int(m.var2level[v])
		}
		if live > limit {
			break
		}
	}
	for int(m.var2level[v]) < bestLvl {
		rs.swap(int(m.var2level[v]))
	}
	for int(m.var2level[v]) > bestLvl {
		rs.swap(int(m.var2level[v]) - 1)
	}
}

// rebuildUnique reconstructs every unique-table stripe from the slab: the
// striped table went stale during sifting (keys embed levels, and swaps
// relabel and rewrite thousands of slots), and one O(slab) rebuild at the
// end beats maintaining 256 stripes through every swap. Runs under all
// stripe locks; the caller already guarantees quiescence.
func (m *Manager) rebuildUnique() {
	n := uint32(m.next.Load())
	vacant, _, _ := m.vacant(n)
	for i := range m.unique {
		st := &m.unique[i]
		st.mu.Lock()
		st.tab.Store(newUniqueTable(0))
		st.used = 0
	}
	for idx := uint32(1); idx < n; idx++ {
		if vacant[idx>>6]&(1<<(idx&63)) != 0 {
			continue
		}
		nd := m.slot(idx)
		if nd.level < 0 {
			continue
		}
		h := hash3(nd.level, int32(nd.low), int32(nd.high))
		m.unique[h>>stripeShift].add(h, idx)
	}
	for i := range m.unique {
		m.unique[i].mu.Unlock()
	}
}

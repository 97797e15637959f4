package bdd

import "sort"

// NodeBytes is the slab cost of one live node: the three-int32 node
// record. It deliberately excludes the unique-table and operation-cache
// entries that reference the node — those are accounted separately in
// Profile — so byte attributions derived from node counts (watermarks,
// per-level histograms) stay comparable across cache configurations.
const NodeBytes = 12

// LevelProfile is one row of the per-level live-node attribution: how
// many live nodes decide on a given variable level and what they cost in
// slab bytes. Level indexes the manager's variable order, so the
// histogram is the direct input to variable-reordering and compression
// work — a level hoarding nodes is a reordering target.
type LevelProfile struct {
	Level int `json:"level"`
	// Var is the variable index currently decided at this level — equal to
	// Level until dynamic reordering has permuted the order.
	Var   int   `json:"var"`
	Nodes int64 `json:"nodes"`
	Bytes int64 `json:"bytes"`
}

// Profile is a structural snapshot of a Manager's node population and
// cache machinery, built by Manager.Profile.
type Profile struct {
	// LiveNodes is the in-use slot count (NumNodes) at snapshot time;
	// LiveBytes its slab cost at NodeBytes per node.
	LiveNodes int64 `json:"live_nodes"`
	LiveBytes int64 `json:"live_bytes"`
	// SlabSlots is the slab high-watermark (slots ever allocated to a node,
	// including the constant and free-listed slots; the fresh slots a
	// stripe has reserved but not yet used are not counted); SlabBytes its
	// retained backing storage. FreeSlots counts slots parked on the
	// reclaim free list awaiting reuse, including the batches stripes have
	// taken from it but not yet used.
	SlabSlots int64 `json:"slab_slots"`
	SlabBytes int64 `json:"slab_bytes"`
	FreeSlots int64 `json:"free_slots"`
	// ComplementEdges counts live nodes whose low edge carries the
	// complement bit; ComplementShare is that count over LiveNodes. The
	// high edge is never complemented (canonical form), so this is the
	// complete complement census.
	ComplementEdges int64   `json:"complement_edges"`
	ComplementShare float64 `json:"complement_share"`
	// UniqueUsed/UniqueSlots are the occupancy and capacity summed over
	// the unique table's stripes; UniqueBytes the tables' backing cost, 8
	// bytes per slot.
	UniqueUsed  int64 `json:"unique_used"`
	UniqueSlots int64 `json:"unique_slots"`
	UniqueBytes int64 `json:"unique_bytes"`
	// OpCacheUsed/OpCacheSlots are the default worker's operation-cache
	// occupancy and capacity (ITE plus binary-kernel caches). Forked
	// workers hold private caches this snapshot cannot see.
	OpCacheUsed  int64 `json:"op_cache_used"`
	OpCacheSlots int64 `json:"op_cache_slots"`
	// Pinned counts distinct pinned handles (external references that
	// survive reclamation); Generation is the reclaim generation.
	Pinned     int    `json:"pinned"`
	Generation uint64 `json:"generation"`
	// PeakLiveNodes/PeakLiveBytes/WatermarkSamples mirror Watermark().
	PeakLiveNodes    int64 `json:"peak_live_nodes"`
	PeakLiveBytes    int64 `json:"peak_live_bytes"`
	WatermarkSamples int64 `json:"watermark_samples"`
	// Levels is the per-level live-node histogram in variable order,
	// omitting empty levels.
	Levels []LevelProfile `json:"levels,omitempty"`
	// Order is the current variable order (level2var), present only when
	// it differs from the identity — i.e. after NewOrdered/SetOrder or a
	// Reorder run.
	Order []int `json:"order,omitempty"`
}

// TopLevels returns the n largest levels by live-node count (all of them
// if n <= 0 or exceeds the populated level count), ordered by descending
// node count with level as the tiebreak.
func (p *Profile) TopLevels(n int) []LevelProfile {
	out := make([]LevelProfile, len(p.Levels))
	copy(out, p.Levels)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Nodes != out[j].Nodes {
			return out[i].Nodes > out[j].Nodes
		}
		return out[i].Level < out[j].Level
	})
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// Profile walks the node slab and cache tables and returns a structural
// snapshot: the per-level live-node histogram, byte attribution,
// complement-edge share, unique-table and (default-worker) op-cache
// occupancy, and the peak watermark. It is an O(slab) walk — this is the
// on-demand introspection path, never called from engine hot loops, which
// is how the zero-overhead-when-disabled tracing contract is preserved.
//
// Safe to call concurrently with node creation (slots never move and the
// free list is read under its lock), but the snapshot is only guaranteed
// internally consistent at a quiescent point — pipeline callers take the
// artifact's run lock, the engine samples at round boundaries.
func (m *Manager) Profile() Profile {
	n := uint32(m.next.Load())
	// Slots released by past sweeps still hold their old contents and
	// reserved ones hold zeros; neither is attributed to any level.
	vacant, free, fresh := m.vacant(n)
	p := Profile{
		LiveNodes:  m.live(),
		SlabSlots:  int64(n) - fresh,
		FreeSlots:  free,
		Generation: m.gen.Load(),
	}
	p.LiveBytes = p.LiveNodes * NodeBytes
	p.SlabBytes = p.SlabSlots * NodeBytes
	p.PeakLiveNodes, p.PeakLiveBytes, p.WatermarkSamples = m.Watermark()

	// Walk chunk by chunk: one atomic chunk-pointer load per 2^16 slots
	// instead of one per slot keeps the full-slab walk in the handful-of-
	// milliseconds range that lets the tracer afford a snapshot per run.
	counts := make([]int64, m.numVars)
	for base := uint32(0); base < n; base += chunkSize {
		ch := m.chunks[base>>chunkBits].Load()
		if ch == nil {
			break
		}
		end := n - base
		if end > chunkSize {
			end = chunkSize
		}
		off := uint32(0)
		if base == 0 {
			off = 1 // slot 0 is the constant (level == maxLevel)
		}
		for ; off < end; off++ {
			idx := base + off
			if vacant[idx>>6]&(1<<(idx&63)) != 0 {
				continue
			}
			nd := &ch[off]
			lvl := nd.level
			if lvl < 0 || int(lvl) >= len(counts) {
				// The constant (maxLevel) lives in slot 0 only; anything else
				// out of range is a slot racing mid-creation — skip it.
				continue
			}
			counts[lvl]++
			if nd.low&1 != 0 {
				p.ComplementEdges++
			}
		}
	}
	for lvl, c := range counts {
		if c == 0 {
			continue
		}
		p.Levels = append(p.Levels, LevelProfile{
			Level: lvl,
			Var:   int(m.level2var[lvl]),
			Nodes: c,
			Bytes: c * NodeBytes,
		})
	}
	for l, v := range m.level2var {
		if int(v) != l {
			p.Order = m.Order()
			break
		}
	}
	if p.LiveNodes > 0 {
		p.ComplementShare = float64(p.ComplementEdges) / float64(p.LiveNodes)
	}

	for i := range m.unique {
		st := &m.unique[i]
		st.mu.Lock()
		p.UniqueUsed += int64(st.used)
		p.UniqueSlots += int64(len(st.tab.Load().slots))
		st.mu.Unlock()
	}
	// One tag+index word per slot.
	p.UniqueBytes = p.UniqueSlots * 8
	p.OpCacheUsed = int64(m.def.ite.used + m.def.bin.used)
	p.OpCacheSlots = int64(len(m.def.ite.keys) + len(m.def.bin.keys))

	m.pinMu.Lock()
	p.Pinned = len(m.pinned)
	m.pinMu.Unlock()
	return p
}

// vacant returns a bitset over slab indices [0, n) marking the slots that
// hold no node — the free list and every stripe's unused reservation —
// with the number of free-listed slots (stripes' batches included) and of
// reserved fresh ones. Consistent only at a quiescent point.
func (m *Manager) vacant(n uint32) (bits []uint64, free, fresh int64) {
	bits = make([]uint64, (n+63)/64)
	set := func(idx uint32) {
		if idx < n {
			bits[idx>>6] |= 1 << (idx & 63)
		}
	}
	m.freeMu.Lock()
	for _, idx := range m.free {
		set(uint32(idx))
	}
	free = int64(len(m.free))
	m.freeMu.Unlock()
	for i := range m.unique {
		st := &m.unique[i]
		st.mu.Lock()
		for _, idx := range st.spare {
			set(uint32(idx))
		}
		for idx := st.blk; idx < st.blkEnd; idx++ {
			set(idx)
		}
		free += int64(len(st.spare))
		fresh += int64(st.blkEnd - st.blk)
		st.mu.Unlock()
	}
	return bits, free, fresh
}

// NoteWatermark samples the live node count into the peak high-watermark:
// a sum over the unique-table stripes' counters and a CAS-max, cheap
// enough for every barrier. The engine calls it at deterministic quiescent
// boundaries — reclaim entry (where the population peaks locally), EPVP
// round ends, and SPF completion — so the recorded peak does not depend on
// goroutine scheduling or worker count. Safe for concurrent use.
func (m *Manager) NoteWatermark() {
	live := m.live()
	m.wmSamples.Add(1)
	for {
		cur := m.peakLive.Load()
		if live <= cur || m.peakLive.CompareAndSwap(cur, live) {
			return
		}
	}
}

// Watermark returns the peak live-node count observed by NoteWatermark,
// its slab-byte equivalent, and the number of samples taken. A manager
// that never hit a sample point reports its current live population so
// short runs still record a meaningful peak.
func (m *Manager) Watermark() (peakNodes, peakBytes, samples int64) {
	peakNodes = m.peakLive.Load()
	samples = m.wmSamples.Load()
	if cur := m.live(); cur > peakNodes {
		peakNodes = cur
	}
	return peakNodes, peakNodes * NodeBytes, samples
}

// Package bdd implements reduced ordered binary decision diagrams (ROBDDs).
//
// The package replaces the JDD Java library used by the Expresso paper. It
// provides a Manager that hash-conses nodes into a shared table, exposes the
// usual boolean connectives through memoized apply kernels, and supports the
// quantification and inspection operations the verifier needs (Restrict,
// Exists, Support, SatCount, AnySat).
//
// # Complement edges
//
// Nodes are identified by int32 handles. A handle packs a slab index and a
// complement bit: handle = index<<1 | c. When c is set the handle denotes
// the NEGATION of the stored node, so Not is an O(1) bit flip that creates
// no nodes and touches no cache. One stored constant (slab slot 0) yields
// both False (handle 0) and True (handle 1 = ¬False). Canonical form: the
// high (then) edge of a stored node is never complemented; mk normalizes
// by complementing both children and returning a complemented handle. This
// halves the node population for negation-heavy predicates — a function
// and its negation share one slab slot.
//
// # Apply kernels
//
// Binary conjunction is a specialized two-operand kernel (And) with its own
// operation cache and commutative key normalization; Or and Diff are De
// Morgan rewrites of the same kernel, so all three share cache entries.
// The generic three-operand ITE remains for the genuinely ternary call
// sites (the FIB fold, cross-order import and Convert).
//
// # Concurrency model
//
// The node universe is shared and safe for concurrent use, so any number of
// goroutines may hash-cons nodes at once. Because hash-consing is canonical,
// a boolean function has exactly one handle within a Manager no matter which
// goroutine builds it first. What the goroutines share is the nodes, not hot
// cache lines:
//
//   - The node slab is a chunked array (handles are stable; slots are never
//     moved or rewritten while reachable).
//   - The unique table is split into 256 stripes, each an index-only
//     open-addressing table: one 8-byte word per slot holding the key's hash
//     as a tag and the slab index, the key itself living in the slab. A hit
//     is lock-free — atomic loads of the stripe's table and slots, a slab
//     compare only when the tag matches. A miss takes the stripe's mutex,
//     re-probes, and inserts: the node is written to the slab before its
//     slot word is published by an atomic store, and growth publishes a new
//     table with an atomic pointer store, so a reader holding the old table
//     can only miss, and a miss re-probes under the lock.
//   - A stripe allocates under its own lock from its own reservation: a
//     block of 64 fresh slab indices (one atomic add on the shared bump
//     pointer per block) or a batch of up to 64 free-list indices. Each
//     stripe counts the nodes it creates; NumNodes and UniqueStats sum those
//     counts. Every slab index below the bump pointer is a live node, on the
//     free list, or in exactly one stripe's unused reservation.
//
// Memoized operations go through a Worker, which owns private operation
// caches: workers never contend on the memo (Sylvan-style per-worker
// caches). A Worker must be used by one goroutine at a time; a fan-out
// takes one per goroutine from the manager's kept set, Workers. The
// Manager embeds a default Worker, the set's first, so existing
// single-threaded callers can keep invoking the same methods on the
// Manager itself — those delegating methods are NOT safe for concurrent
// use, exactly like the old single-threaded Manager.
//
// Operations that only read the slab (Support, SatCount, AnySat, Eval) or
// only hash-cons without a shared memo (Var, Cube, CubeSet,
// Restrict, RestrictMany) are safe to call from any goroutine directly on
// the Manager. AddVarsOrdered is the one structural mutation and
// must not run concurrently with any operation.
//
// # Reclamation
//
// Dead nodes are reclaimed by Reclaim, a stop-the-world mark-and-sweep over
// the slab: nodes reachable from the given roots and from the Pin set stay
// valid (handles are never renumbered), every other slot goes on a free
// list for reuse (the stripes' free-list batches are taken back into it;
// their unused fresh blocks stay reserved), the unique-table stripes are
// compacted to their live population, and the fingerprint memo drops dead
// entries. The sweep is stop-the-world but not serial: its mark, stripe
// compaction and free-list scan each fan out over GOMAXPROCS goroutines,
// and leave the live set, the tables and the free-list order exactly as a
// serial sweep would. Reclaim and Reorder are the only writers of slab
// slots that other goroutines may already have read, which is why both
// require external quiescence — no Manager operation may run concurrently
// — and goroutines resuming afterwards must be ordered after the reclaim
// point by the caller (a channel barrier, as in epvp's round loop). Worker caches
// are invalidated lazily via a generation counter: the first operation on a
// Worker after a reclaim drops its memos, since cached results may mention
// freed handles.
package bdd

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Node is a handle to a BDD node owned by a Manager: slab index shifted
// left one bit, with the low bit as the complement flag. The zero value is
// the constant False.
type Node int32

// Constant node handles. Both are views of slab slot 0: True is the
// complemented edge to the same stored constant.
const (
	False Node = 0
	True  Node = 1
)

// node is the internal representation: a decision at a given level of the
// variable order with low (variable=0) and high (variable=1) branches. The
// high edge is never complemented (canonical form); the low edge may be.
// The level is a position in the order, not a variable index — the
// manager's var2level/level2var permutation maps between the two, and
// Reorder permutes it (rewriting affected slots in place).
type node struct {
	level     int32 // position in the variable order; the constant uses maxLevel
	low, high Node
}

const maxLevel = math.MaxInt32

// Slab geometry: nodes live in fixed-size chunks reachable through an
// atomic pointer directory, so a slot's storage never moves and readers
// need no lock. 2^14 chunks of 2^16 nodes cover the 2^30 slab indices the
// handle encoding leaves room for.
const (
	chunkBits = 16
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
	maxChunks = 1 << 14
	maxNodes  = int64(maxChunks) * chunkSize
)

type nodeChunk [chunkSize]node

// Unique-table striping: the stripe is selected by the top bits of the key
// hash, the in-stripe slot by the low bits, so the two indices stay
// independent.
const (
	stripeBits  = 8
	numStripes  = 1 << stripeBits
	stripeShift = 32 - stripeBits
)

// blockSize is how many slab indices a stripe reserves at once, from the
// bump pointer or from the free list.
const blockSize = 64

// uniqueStripe is one lock stripe of the unique table. tab is padded onto a
// cache line of its own whatever the stripe's alignment: every probe reads
// it, only growth and compaction write it, while the fields after it are
// written by every hit or miss in this stripe or the previous one.
type uniqueStripe struct {
	_   [56]byte
	tab atomic.Pointer[uniqueTable]
	_   [56]byte

	mu      sync.Mutex
	used    int          // occupied slots of tab (guarded by mu)
	created atomic.Int64 // nodes this stripe hash-consed (written under mu)
	hits    atomic.Int64 // mk lookups answered by an existing canonical node
	// The stripe's unused reservation (guarded by mu): fresh indices
	// [blk, blkEnd) and a batch of free-list indices, spent first.
	blk, blkEnd uint32
	spare       []int32
}

// Manager owns a universe of BDD nodes over a fixed number of boolean
// variables. All operations combining Nodes require them to come from the
// same Manager. Node creation (mk, Var, Cube, Restrict...) is safe for
// concurrent use; memoized connectives are safe when each goroutine uses
// its own Worker (see the package comment).
type Manager struct {
	chunks []atomic.Pointer[nodeChunk]
	next   atomic.Int64 // bump pointer: slab indices below it are in use, free or reserved
	slabMu sync.Mutex   // guards chunk allocation only

	// The live population is created minus dropped, where created sums the
	// stripes' counts plus baseCreated: the constant and the nodes sifting
	// creates. dropped counts nodes freed by Reclaim and by sifting.
	baseCreated atomic.Int64
	dropped     atomic.Int64

	// Free slots from past reclaims, handed to stripes in batches before the
	// slab grows. nFree mirrors len(free) so the empty case stays lock-free.
	free   []int32
	nFree  atomic.Int64
	freeMu sync.Mutex

	unique [numStripes]uniqueStripe

	// Reclamation state: gen bumps on every Reclaim so workers can drop
	// stale memos lazily; pinned maps regular handles to refcounts.
	gen    atomic.Uint64
	pinned map[Node]int64
	pinMu  sync.Mutex

	// Cumulative reclamation counters (telemetry).
	rcRuns  atomic.Int64
	rcFreed atomic.Int64
	rcPause atomic.Int64 // nanoseconds across all runs
	// rcCreated is created as of the end of the last Reclaim.
	rcCreated atomic.Int64

	// Peak-live-node high-watermark (see NoteWatermark): the largest live
	// population ever observed at a sample point, and how many samples
	// were taken. Sampling happens at deterministic quiescent boundaries
	// (reclaim entry, EPVP round ends, SPF completion), so the recorded
	// peak is schedule-independent.
	peakLive  atomic.Int64
	wmSamples atomic.Int64

	numVars int

	// Variable order: var2level[i] is the level (depth in the decision
	// order) variable i currently occupies, level2var its inverse. The
	// public API speaks variable indices everywhere; levels are internal
	// currency for mk, the apply kernels, and the slab. Identity at
	// construction unless NewOrdered/SetOrder installed a permutation;
	// Reorder (sifting) permutes it at quiescent points. Reads during
	// operation are safe because mutation requires full quiescence, like
	// Reclaim.
	var2level []int32
	level2var []int32

	// Cumulative reordering counters plus a snapshot of the last sift run
	// (telemetry; lastReorder guarded by reorderMu).
	roRuns      atomic.Int64
	roSwaps     atomic.Int64
	roFreed     atomic.Int64
	roPause     atomic.Int64 // nanoseconds across all runs
	reorderMu   sync.Mutex
	lastReorder ReorderResult

	// fps memoizes function fingerprints (see Fingerprint), keyed by
	// regular (uncomplemented) handles. Fingerprints depend only on the
	// boolean function — not on the variable order — so entries survive
	// Reorder; Reclaim drops dead entries.
	fps sync.Map // Node -> [2]uint64

	// fpPts caches the per-variable field points the fingerprint evaluates
	// at: fpPts[v] = {point for the hi lane, point for the lo lane}. Grown
	// by AddVarsOrdered (which requires quiescence); read-only otherwise.
	fpPts [][2]uint64

	// def is the default worker backing the Manager's own connective
	// methods, preserving the old single-threaded API. workers is the kept
	// set Workers hands out, def first; workersMu guards its growth.
	def       Worker
	workersMu sync.Mutex
	workers   []*Worker
}

// uniqueTable is one stripe's index-only open-addressing table (linear
// probing). A slot word holds the key's hash3 in its high half as a tag and
// the node's slab index in its low half; 0 is empty (index 0 is the
// constant, which is never filed). The (level, low, high) key lives only in
// the slab, which a probe reads when the tag matches. A published table is
// only ever added to, by atomic slot stores under the stripe lock; growth
// and compaction build a new table and publish its pointer.
type uniqueTable struct {
	mask  uint32
	slots []atomic.Uint64
}

// newUniqueTable returns an empty table for n entries: the smallest power
// of two (at least 16) that keeps them under 2/3 load, so a table built for
// its population starts at a load above 1/3.
func newUniqueTable(n int) *uniqueTable {
	size := 16
	for size*2 <= n*3 {
		size *= 2
	}
	return &uniqueTable{mask: uint32(size - 1), slots: make([]atomic.Uint64, size)}
}

// put files slab index idx under hash h. The caller holds the stripe lock
// and has made room.
func (t *uniqueTable) put(h, idx uint32) {
	i := h & t.mask
	for t.slots[i].Load() != 0 {
		i = (i + 1) & t.mask
	}
	t.slots[i].Store(uint64(h)<<32 | uint64(idx))
}

// refiled returns a table sized for n entries holding every entry of t
// whose slab index keep accepts (nil keeps all). Entries carry their hash,
// so no slab read is needed.
func (t *uniqueTable) refiled(n int, keep func(idx uint32) bool) *uniqueTable {
	nt := newUniqueTable(n)
	for i := range t.slots {
		if w := t.slots[i].Load(); w != 0 && (keep == nil || keep(uint32(w))) {
			nt.put(uint32(w>>32), uint32(w))
		}
	}
	return nt
}

// add files idx under hash h, first publishing a table twice the size when
// this one is 2/3 full. Caller holds st.mu.
func (st *uniqueStripe) add(h, idx uint32) {
	t := st.tab.Load()
	if st.used*3 >= len(t.slots)*2 {
		t = t.refiled(len(t.slots), nil)
		st.tab.Store(t)
	}
	t.put(h, idx)
	st.used++
}

// compact republishes the stripe's table holding only the entries keep
// accepts, sized for that population. Caller holds st.mu.
func (st *uniqueStripe) compact(keep func(idx uint32) bool) {
	t := st.tab.Load()
	kept := 0
	for i := range t.slots {
		if w := t.slots[i].Load(); w != 0 && keep(uint32(w)) {
			kept++
		}
	}
	st.tab.Store(t.refiled(kept, keep))
	st.used = kept
}

type tableKey struct{ a, b, c int32 }

const emptySlot = Node(-1)

func hash3(a, b, c int32) uint32 {
	h := uint64(uint32(a))*0x9E3779B1 ^ uint64(uint32(b))*0x85EBCA77 ^ uint64(uint32(c))*0xC2B2AE3D
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return uint32(h)
}

// opCache is a direct-mapped, lossy operation cache: a put may overwrite
// an unrelated entry, and a get may miss on something once cached. That is
// safe — apply results are recomputed into the same canonical nodes — and
// it bounds the cache's memory, unlike an exact table whose rehash churn
// used to dominate the allocation profile. The cache starts small and
// quadruples (rehashing survivors in one pass, no collision chains to
// maintain) until it reaches OpCacheMaxSlots, after which insertion is
// pure overwrite.
type opCache struct {
	keys []tableKey
	vals []Node
	used int // occupied slots; an upper bound on live entries
	mask uint32
}

// OpCacheMaxSlots is the slot budget of every operation cache: 2^20 slots
// of 16 bytes, 16 MiB. A Worker holds two caches.
const OpCacheMaxSlots = 1 << 20

const opCacheInitSlots = 1 << 12

func newOpCache() opCache {
	c := opCache{
		keys: make([]tableKey, opCacheInitSlots),
		vals: make([]Node, opCacheInitSlots),
		mask: opCacheInitSlots - 1,
	}
	for i := range c.vals {
		c.vals[i] = emptySlot
	}
	return c
}

func (c *opCache) get(a, b, op int32) (Node, bool) {
	i := hash3(a, b, op) & c.mask
	if c.vals[i] == emptySlot {
		return 0, false
	}
	if k := c.keys[i]; k.a == a && k.b == b && k.c == op {
		return c.vals[i], true
	}
	return 0, false
}

func (c *opCache) put(a, b, op int32, v Node) {
	if c.used*4 >= len(c.keys)*3 && len(c.keys)*4 <= OpCacheMaxSlots {
		c.grow()
	}
	i := hash3(a, b, op) & c.mask
	if c.vals[i] == emptySlot {
		c.used++
	}
	c.keys[i] = tableKey{a, b, op}
	c.vals[i] = v
}

// grow quadruples the cache, re-placing surviving entries (direct-mapped:
// collisions during the move simply evict).
func (c *opCache) grow() {
	old := *c
	size := uint32(len(old.keys)) * 4
	c.keys = make([]tableKey, size)
	c.vals = make([]Node, size)
	c.mask = size - 1
	c.used = 0
	for i := range c.vals {
		c.vals[i] = emptySlot
	}
	for i, v := range old.vals {
		if v == emptySlot {
			continue
		}
		k := old.keys[i]
		j := hash3(k.a, k.b, k.c) & c.mask
		if c.vals[j] == emptySlot {
			c.used++
		}
		c.keys[j] = k
		c.vals[j] = v
	}
}

// New creates a Manager with numVars boolean variables, indexed 0..numVars-1.
// The initial order is the identity: variable 0 is the topmost.
func New(numVars int) *Manager {
	if numVars < 0 {
		panic("bdd: negative variable count")
	}
	m := &Manager{
		chunks:  make([]atomic.Pointer[nodeChunk], maxChunks),
		numVars: numVars,
		pinned:  make(map[Node]int64),
	}
	m.var2level = make([]int32, numVars)
	m.level2var = make([]int32, numVars)
	for i := range m.var2level {
		m.var2level[i] = int32(i)
		m.level2var[i] = int32(i)
	}
	m.growFpPoints()
	for i := range m.unique {
		m.unique[i].tab.Store(newUniqueTable(0))
	}
	m.def = Worker{m: m, ite: newOpCache(), bin: newOpCache()}
	m.workers = []*Worker{&m.def}
	// Slot 0 is the single stored constant: False regular, True complemented.
	m.ensureChunk(0)
	*m.slot(0) = node{level: maxLevel}
	m.next.Store(1)
	m.baseCreated.Store(1)
	return m
}

// NewOrdered creates a Manager whose initial variable order is the given
// permutation: level2var[l] is the variable index decided at level l
// (level 0 topmost). It panics when level2var is not a permutation of
// [0,numVars) — a static-order heuristic handing over a broken permutation
// is a programming error, not an input condition.
func NewOrdered(numVars int, level2var []int) *Manager {
	m := New(numVars)
	if err := m.SetOrder(level2var); err != nil {
		panic("bdd: " + err.Error())
	}
	return m
}

// SetOrder installs a variable order on a pristine manager (no nodes
// beyond the constant, nothing pinned). It returns an error when the
// manager already holds nodes — existing levels would silently mean
// different variables — or when level2var is not a permutation of
// [0,NumVars). Use Reorder to change the order of a populated manager.
func (m *Manager) SetOrder(level2var []int) error {
	if live := m.live(); live > 1 || m.PinnedCount() > 0 {
		return fmt.Errorf("SetOrder on a non-pristine manager (%d live nodes); use Reorder", live)
	}
	l2v, v2l, err := permutation(level2var, m.numVars)
	if err != nil {
		return err
	}
	m.level2var, m.var2level = l2v, v2l
	return nil
}

// permutation validates that order is a permutation of [0,numVars) and
// returns it with its inverse as int32 slices.
func permutation(order []int, numVars int) (l2v, v2l []int32, err error) {
	if len(order) != numVars {
		return nil, nil, fmt.Errorf("order has %d entries, want %d", len(order), numVars)
	}
	l2v = make([]int32, numVars)
	v2l = make([]int32, numVars)
	for i := range v2l {
		v2l[i] = -1
	}
	for l, v := range order {
		if v < 0 || v >= numVars || v2l[v] >= 0 {
			return nil, nil, fmt.Errorf("order is not a permutation of [0,%d)", numVars)
		}
		l2v[l] = int32(v)
		v2l[v] = int32(l)
	}
	return l2v, v2l, nil
}

// Order returns the current variable order: element l is the variable
// index decided at level l. The copy is safe to retain.
func (m *Manager) Order() []int {
	out := make([]int, len(m.level2var))
	for l, v := range m.level2var {
		out[l] = int(v)
	}
	return out
}

// DefaultWorker returns the Manager's built-in worker (the one backing the
// Manager's own connective methods), worker 0 of Workers. Single-threaded
// phases may use it freely; a fan-out takes one worker per goroutine from
// Workers.
func (m *Manager) DefaultWorker() *Worker { return &m.def }

// Workers returns the manager's first n kept workers (one when n < 1);
// worker 0 is the default worker. The set grows on demand and is kept for
// the manager's life, so every fan-out over the manager finds the op
// caches earlier ones filled; each worker holds two op caches of up to
// OpCacheMaxSlots slots. Its contract is the default worker's: one run
// uses the set at a time, each worker from one goroutine at a time.
func (m *Manager) Workers(n int) []*Worker {
	n = max(n, 1)
	m.workersMu.Lock()
	defer m.workersMu.Unlock()
	for len(m.workers) < n {
		m.workers = append(m.workers, m.NewWorker())
	}
	return m.workers[:n:n]
}

// NewWorker creates a Worker with private operation caches that the
// manager does not keep: for a one-off caller outside a run's fan-out,
// which borrows kept workers from Workers instead.
func (m *Manager) NewWorker() *Worker {
	return &Worker{m: m, ite: newOpCache(), bin: newOpCache(), gen: m.gen.Load()}
}

// NumVars returns the number of variables the manager was created with.
func (m *Manager) NumVars() int { return m.numVars }

// NumNodes returns the number of live hash-consed slab slots (including the
// shared constant). It is a proxy for memory use and shrinks when Reclaim
// frees dead nodes.
func (m *Manager) NumNodes() int { return int(m.live()) }

// created is the cumulative number of nodes hash-consed, the constant
// included: the stripes' counts plus baseCreated. It sums 256 counters, so
// callers read it at barriers, not per node.
func (m *Manager) created() int64 {
	n := m.baseCreated.Load()
	for i := range m.unique {
		n += m.unique[i].created.Load()
	}
	return n
}

// live is the live population: created minus dropped.
func (m *Manager) live() int64 { return m.created() - m.dropped.Load() }

// AddVarsOrdered grows the variable universe by len(order) variables and
// returns the index of the first. The new block sits below every existing
// level, so existing nodes are unaffected; within it, order[k] is the
// offset, from the returned index, of the variable decided at the block's
// k-th level from the top. It must not be called concurrently with any
// other operation. It panics when order is not a permutation of
// [0,len(order)) — like NewOrdered, a broken permutation is a programming
// error, not an input condition.
func (m *Manager) AddVarsOrdered(order []int) int {
	l2v, v2l, err := permutation(order, len(order))
	if err != nil {
		panic("bdd: " + err.Error())
	}
	first := int32(m.numVars)
	m.numVars += len(order)
	for k := range l2v {
		m.level2var = append(m.level2var, first+l2v[k])
		m.var2level = append(m.var2level, first+v2l[k])
	}
	m.growFpPoints()
	return int(first)
}

// slot returns the slab storage for index idx.
func (m *Manager) slot(idx uint32) *node {
	return &m.chunks[idx>>chunkBits].Load()[idx&chunkMask]
}

// nodeAt returns the slab slot of n (complement bit ignored). Safe for
// concurrent readers: a handle only becomes reachable after its slot is
// fully written, ordered by the atomic store that files it in the unique
// table (or whatever synchronization published the handle to the reading
// goroutine).
func (m *Manager) nodeAt(n Node) *node {
	return m.slot(uint32(n) >> 1)
}

func (m *Manager) level(n Node) int32 { return m.nodeAt(n).level }

// low and high resolve a handle's children with the complement edge
// applied: the children of ¬n are the negated children of n.
func (m *Manager) low(n Node) Node  { return m.nodeAt(n).low ^ (n & 1) }
func (m *Manager) high(n Node) Node { return m.nodeAt(n).high ^ (n & 1) }

// ensureChunk allocates slab chunk ci if it does not exist yet.
func (m *Manager) ensureChunk(ci uint32) {
	if m.chunks[ci].Load() != nil {
		return
	}
	m.slabMu.Lock()
	if m.chunks[ci].Load() == nil {
		m.chunks[ci].Store(new(nodeChunk))
	}
	m.slabMu.Unlock()
}

// claim returns an unused slab index from the stripe's reservation,
// refilling it first when it is spent: a batch of up to blockSize
// free-list indices while the free list has any, else blockSize fresh
// indices from one atomic add on the bump pointer. Caller holds st.mu.
func (m *Manager) claim(st *uniqueStripe) uint32 {
	if len(st.spare) == 0 && st.blk == st.blkEnd && m.nFree.Load() > 0 {
		m.freeMu.Lock()
		k := len(m.free) - min(blockSize, len(m.free))
		st.spare = append(st.spare, m.free[k:]...)
		m.free = m.free[:k]
		m.nFree.Store(int64(k))
		m.freeMu.Unlock()
	}
	if n := len(st.spare); n > 0 {
		idx := uint32(st.spare[n-1])
		st.spare = st.spare[:n-1]
		return idx
	}
	if st.blk == st.blkEnd {
		end := m.next.Add(blockSize)
		if end > maxNodes {
			panic("bdd: node table overflow (2^30 nodes)")
		}
		st.blk, st.blkEnd = uint32(end-blockSize), uint32(end)
		m.ensureChunk(st.blk >> chunkBits)
		m.ensureChunk((st.blkEnd - 1) >> chunkBits)
	}
	st.blk++
	return st.blk - 1
}

// mk returns the canonical handle for (level, low, high), applying the
// reduction rule low==high => low and the complement-edge normalization:
// a node whose high edge is complemented is stored with both children
// negated and returned as a complemented handle, so the stored form is
// unique per function pair {f, ¬f}. Safe for concurrent use: a hit takes
// no lock; a miss re-probes and inserts under the stripe lock, which
// serializes insertion for any given key.
func (m *Manager) mk(level int32, low, high Node) Node {
	if low == high {
		return low
	}
	c := high & 1
	low ^= c
	high ^= c
	h := hash3(level, int32(low), int32(high))
	st := &m.unique[h>>stripeShift]
	n, ok := m.lookup(st.tab.Load(), h, level, low, high)
	if !ok {
		st.mu.Lock()
		if n, ok = m.lookup(st.tab.Load(), h, level, low, high); !ok {
			idx := m.claim(st)
			*m.slot(idx) = node{level: level, low: low, high: high}
			st.created.Add(1)
			st.add(h, idx)
			n = Node(idx << 1)
		}
		st.mu.Unlock()
	}
	if ok {
		st.hits.Add(1)
	}
	return n ^ c
}

// lookup probes t for the node (level, low, high) with hash h. Lock-free:
// it reads slot words atomically and the slab only behind a matching tag.
func (m *Manager) lookup(t *uniqueTable, h uint32, level int32, low, high Node) (Node, bool) {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		w := t.slots[i].Load()
		if w == 0 {
			return 0, false
		}
		if uint32(w>>32) == h {
			idx := uint32(w)
			if nd := m.slot(idx); nd.level == level && nd.low == low && nd.high == high {
				return Node(idx << 1), true
			}
		}
	}
}

// Var returns the BDD for variable i (true iff variable i is 1).
func (m *Manager) Var(i int) Node {
	if i < 0 || i >= m.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", i, m.numVars))
	}
	return m.mk(m.var2level[i], False, True)
}

// NVar returns the BDD for the negation of variable i.
func (m *Manager) NVar(i int) Node {
	if i < 0 || i >= m.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", i, m.numVars))
	}
	return m.mk(m.var2level[i], True, False)
}

// Worker is a per-goroutine view of a Manager holding private memos for
// the apply kernels and the generic ITE core. Workers sharing a Manager
// build into the same canonical node universe; only the caches are
// private, so concurrent workers never contend on (or pollute) each
// other's memos. A Worker must not be used by two goroutines at once.
type Worker struct {
	m   *Manager
	ite opCache // (f, g, h) -> ITE(f,g,h); all three operands non-constant
	bin opCache // (a, b, op) -> binary kernel result
	gen uint64  // manager reclaim generation the caches are valid for
	// Cumulative memo counters (telemetry). A Worker is single-goroutine
	// by contract, so plain fields suffice; they survive ClearCache.
	iteHits, iteMisses int64
	binHits, binMisses int64
}

// opAnd fills the third key slot of the bin cache (the cache type is the
// ITE memo's, keyed by three operands): one binary kernel, one tag.
const opAnd int32 = 0

// Manager returns the manager this worker builds into.
func (w *Worker) Manager() *Manager { return w.m }

// sync drops the worker's memos when the manager has reclaimed nodes since
// they were filled: cached results may mention freed handles. Called on
// every public entry point; a single atomic load in the common case.
func (w *Worker) sync() {
	if g := w.m.gen.Load(); g != w.gen {
		w.gen = g
		if w.ite.used > 0 {
			w.ite = newOpCache()
		}
		if w.bin.used > 0 {
			w.bin = newOpCache()
		}
	}
}

// ClearCache drops the worker's memo tables. Handles stay valid (the shared
// unique table is untouched). It deliberately does NOT reset the cumulative
// hit/miss counters: telemetry computes deltas from MemoStats, which a reset
// between two readings would make negative. See MemoStats.
func (w *Worker) ClearCache() {
	w.ite = newOpCache()
	w.bin = newOpCache()
}

// CacheSize returns the number of memoized results held by this worker
// across all operation caches, a proxy for the caches' memory footprint.
func (w *Worker) CacheSize() int { return w.ite.used + w.bin.used }

// MemoStats returns the worker's cumulative operation-memo hit and miss
// counts, summed over the ITE cache and the binary-kernel cache. The
// counters are monotone: neither ClearCache nor reclamation resets them,
// so telemetry can difference successive reads safely. Terminal-case calls
// touch no memo and count as neither. Must be read with the same
// single-goroutine discipline as every other Worker method.
func (w *Worker) MemoStats() (hits, misses int64) {
	return w.iteHits + w.binHits, w.iteMisses + w.binMisses
}

// ITE computes if-then-else: f ? g : h. It is the generic ternary
// connective; the common binary connectives use the specialized kernels
// instead. Terminal cases return before any cache access.
func (w *Worker) ITE(f, g, h Node) Node {
	w.sync()
	return w.ite3(f, g, h)
}

func (w *Worker) ite3(f, g, h Node) Node {
	// Terminal cases: no memo probe, no memo insertion.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	case g == False && h == True:
		return f ^ 1 // ¬f is a bit flip under complement edges
	}
	// Operand coincidences shrink the call before it is cached.
	if f == g {
		g = True
	} else if f == g^1 {
		g = False
	}
	if f == h {
		h = False
	} else if f == h^1 {
		h = True
	}
	switch {
	case g == h:
		return g
	case g == True && h == False:
		return f
	case g == False && h == True:
		return f ^ 1
	}
	// A single constant operand reduces ITE to a binary connective; route
	// it through the And kernel so it shares the bin cache.
	switch {
	case h == False: // f ∧ g
		return w.and2(f, g)
	case h == True: // f → g
		return w.and2(f, g^1) ^ 1
	case g == False: // ¬f ∧ h
		return w.and2(f^1, h)
	case g == True: // f ∨ h
		return w.and2(f^1, h^1) ^ 1
	}
	// Canonicalize complement bits so equivalent calls share one cache
	// entry: ITE(¬f,g,h)=ITE(f,h,g), and ITE(f,¬g,¬h)=¬ITE(f,g,h).
	if f&1 != 0 {
		f, g, h = f^1, h, g
	}
	var c Node
	if g&1 != 0 {
		g, h, c = g^1, h^1, 1
	}
	if r, ok := w.ite.get(int32(f), int32(g), int32(h)); ok {
		w.iteHits++
		return r ^ c
	}
	w.iteMisses++
	m := w.m
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	if l := m.level(h); l < top {
		top = l
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	h0, h1 := m.cofactors(h, top)
	r := m.mk(top, w.ite3(f0, g0, h0), w.ite3(f1, g1, h1))
	w.ite.put(int32(f), int32(g), int32(h), r)
	return r ^ c
}

// cofactors returns the two children of n at the given level, resolving
// the complement edge; nodes above the level cofactor to themselves.
func (m *Manager) cofactors(n Node, level int32) (lo, hi Node) {
	nd := m.nodeAt(n)
	if nd.level == level {
		c := n & 1
		return nd.low ^ c, nd.high ^ c
	}
	return n, n
}

// and2 is the specialized conjunction kernel: two operands, commutative
// key normalization, and a dedicated cache shared (via De Morgan) with
// Or and Diff.
func (w *Worker) and2(a, b Node) Node {
	// Terminal cases: no memo probe, no memo insertion.
	switch {
	case a == b:
		return a
	case a == b^1: // f ∧ ¬f
		return False
	case a == False || b == False:
		return False
	case a == True:
		return b
	case b == True:
		return a
	}
	if a > b { // commutative: one cache entry per unordered pair
		a, b = b, a
	}
	if r, ok := w.bin.get(int32(a), int32(b), opAnd); ok {
		w.binHits++
		return r
	}
	w.binMisses++
	m := w.m
	top := m.level(a)
	if l := m.level(b); l < top {
		top = l
	}
	a0, a1 := m.cofactors(a, top)
	b0, b1 := m.cofactors(b, top)
	r := m.mk(top, w.and2(a0, b0), w.and2(a1, b1))
	w.bin.put(int32(a), int32(b), opAnd, r)
	return r
}

// And returns the conjunction of its arguments (True for no arguments).
func (w *Worker) And(ns ...Node) Node {
	w.sync()
	r := True
	for _, n := range ns {
		if r == False {
			return False
		}
		r = w.and2(r, n)
	}
	return r
}

// Or returns the disjunction of its arguments (False for no arguments).
// Disjunction is the De Morgan dual of the And kernel: ¬(¬a ∧ ¬b).
func (w *Worker) Or(ns ...Node) Node {
	w.sync()
	r := False
	for _, n := range ns {
		if r == True {
			return True
		}
		r = w.and2(r^1, n^1) ^ 1
	}
	return r
}

// Not returns the negation of n: an O(1) complement-bit flip.
func (w *Worker) Not(n Node) Node { return n ^ 1 }

// Diff returns a AND NOT b.
func (w *Worker) Diff(a, b Node) Node {
	w.sync()
	return w.and2(a, b^1)
}

// Exists existentially quantifies the given variables out of n.
func (w *Worker) Exists(n Node, vars ...int) Node {
	if len(vars) == 0 {
		return n
	}
	w.sync()
	m := w.m
	// Quantified variables translate to levels once; the recursion then
	// runs purely in level space and prunes below the deepest of them.
	set := make(map[int32]bool, len(vars))
	maxLvl := int32(-1)
	for _, v := range vars {
		l := m.var2level[v]
		set[l] = true
		if l > maxLvl {
			maxLvl = l
		}
	}
	memo := make(map[Node]Node)
	var rec func(Node) Node
	rec = func(x Node) Node {
		if m.level(x) > maxLvl {
			return x
		}
		if r, ok := memo[x]; ok {
			return r
		}
		lo, hi := rec(m.low(x)), rec(m.high(x))
		var r Node
		if set[m.level(x)] {
			r = w.and2(lo^1, hi^1) ^ 1 // lo ∨ hi
		} else {
			r = m.mk(m.level(x), lo, hi)
		}
		memo[x] = r
		return r
	}
	return rec(n)
}

// The Manager's connective methods delegate to the default worker,
// preserving the old single-threaded API. They are not safe for concurrent
// use; parallel phases create their own Workers.

// ITE computes if-then-else via the default worker.
func (m *Manager) ITE(f, g, h Node) Node { return m.def.ITE(f, g, h) }

// And returns the conjunction of its arguments (True for no arguments).
func (m *Manager) And(ns ...Node) Node { return m.def.And(ns...) }

// Or returns the disjunction of its arguments (False for no arguments).
func (m *Manager) Or(ns ...Node) Node { return m.def.Or(ns...) }

// Not returns the negation of n.
func (m *Manager) Not(n Node) Node { return n ^ 1 }

// Diff returns a AND NOT b.
func (m *Manager) Diff(a, b Node) Node { return m.def.Diff(a, b) }

// Exists existentially quantifies the given variables out of n.
func (m *Manager) Exists(n Node, vars ...int) Node { return m.def.Exists(n, vars...) }

// Restrict fixes variable i to value and simplifies. Safe for concurrent
// use (local memo, lock-free reads, hash-consed writes).
func (m *Manager) Restrict(n Node, i int, value bool) Node {
	memo := make(map[Node]Node)
	var rec func(Node) Node
	lvl := m.var2level[i]
	rec = func(x Node) Node {
		if m.level(x) > lvl {
			return x // constants or nodes below the variable
		}
		if r, ok := memo[x]; ok {
			return r
		}
		var r Node
		if m.level(x) == lvl {
			if value {
				r = m.high(x)
			} else {
				r = m.low(x)
			}
		} else {
			r = m.mk(m.level(x), rec(m.low(x)), rec(m.high(x)))
		}
		memo[x] = r
		return r
	}
	return rec(n)
}

// Cofactor fixes vars to val in UintCube's convention (vars[0] the most
// significant bit; at most 64 of them) and simplifies. When the fixed
// variables are the topmost levels it is a walk of at most len(vars)
// steps that allocates nothing and builds no node; otherwise the nodes
// above the deepest fixed level are rebuilt, as a restriction must. Safe
// for concurrent use.
func (m *Manager) Cofactor(n Node, vars []int, val uint64) Node {
	deepest := int32(-1)
	for _, v := range vars {
		deepest = max(deepest, m.var2level[v])
	}
	var memo map[Node]Node // filled only below a free level
	var rec func(Node) Node
	rec = func(x Node) Node {
		lvl := m.level(x)
		if lvl > deepest {
			return x
		}
		for k, v := range vars {
			if m.var2level[v] == lvl {
				if val>>(len(vars)-1-k)&1 != 0 {
					return rec(m.high(x))
				}
				return rec(m.low(x))
			}
		}
		if r, ok := memo[x]; ok {
			return r
		}
		if memo == nil {
			memo = make(map[Node]Node)
		}
		r := m.mk(lvl, rec(m.low(x)), rec(m.high(x)))
		memo[x] = r
		return r
	}
	return rec(n)
}

// Convert restricts n to the values fix gives its variables and renames
// each variable of rename to its image, in one memoized pass, and reports
// the images the result depends on, in increasing order. rename must be
// injective, and no image may be a variable of fix or one n depends on
// without being renamed. A rebuilt node whose (renamed) variable sits
// above both rebuilt children is hash-consed directly; any other — an
// image at or below a child's top level, which the manager's order may
// make of any mapping — is built with ITE, so the result is exact under
// every variable order.
func (w *Worker) Convert(n Node, fix map[int]bool, rename map[int]int) (Node, []int) {
	w.sync()
	m := w.m
	// The affected variables translate to levels once; the walk runs in
	// level space and returns the nodes below the deepest of them as they
	// are.
	type action struct {
		fixed, value, renamed bool
		to                    int32 // the image's level, for a renamed variable
		image                 int
	}
	deepest := int32(-1)
	for v := range fix {
		deepest = max(deepest, m.var2level[v])
	}
	for v := range rename {
		deepest = max(deepest, m.var2level[v])
	}
	acts := make([]action, deepest+1)
	for v, val := range fix {
		acts[m.var2level[v]] = action{fixed: true, value: val}
	}
	for v, img := range rename {
		acts[m.var2level[v]] = action{renamed: true, to: m.var2level[img], image: img}
	}
	var kept []int
	keptSeen := map[int]bool{}
	// Both operations commute with negation, so the memo holds regular
	// handles and a complemented one flips the result.
	memo := make(map[Node]Node)
	var rec func(Node) Node
	rec = func(x Node) Node {
		lvl := m.level(x)
		if lvl > deepest {
			return x
		}
		c := x & 1
		x ^= c
		if r, ok := memo[x]; ok {
			return r ^ c
		}
		a := acts[lvl]
		var r Node
		switch {
		case a.fixed && a.value:
			r = rec(m.high(x))
		case a.fixed:
			r = rec(m.low(x))
		default:
			lo, hi := rec(m.low(x)), rec(m.high(x))
			to := lvl
			if a.renamed {
				to = a.to
				if lo != hi && !keptSeen[a.image] {
					keptSeen[a.image] = true
					kept = append(kept, a.image)
				}
			}
			if to < m.level(lo) && to < m.level(hi) {
				r = m.mk(to, lo, hi)
			} else {
				r = w.ite3(m.mk(to, False, True), hi, lo)
			}
		}
		memo[x] = r
		return r ^ c
	}
	r := rec(n)
	sort.Ints(kept)
	return r, kept
}

// Support returns the sorted list of variables n depends on. Read-only and
// safe for concurrent use.
func (m *Manager) Support(n Node) []int {
	seen := make(map[Node]bool)
	vars := make(map[int]bool)
	var rec func(Node)
	rec = func(x Node) {
		x &^= 1 // f and ¬f share support
		if x == False || seen[x] {
			return
		}
		seen[x] = true
		vars[int(m.level2var[m.level(x)])] = true
		rec(m.low(x))
		rec(m.high(x))
	}
	rec(n)
	out := make([]int, 0, len(vars))
	for v := range vars {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// SatCount returns the number of satisfying assignments of n over all
// manager variables, as a float64 (may overflow to +Inf for very wide
// universes; callers needing exact small counts should restrict the
// variable set via SatCountVars).
func (m *Manager) SatCount(n Node) float64 {
	return m.SatCountVars(n, m.numVars)
}

// SatCountVars returns the number of satisfying assignments over the first
// numVars variables (which must include the support of n). The count is
// computed over the full variable universe in level space and rescaled by
// the unused tail, so it is independent of the manager's variable order.
// Read-only and safe for concurrent use.
func (m *Manager) SatCountVars(n Node, numVars int) float64 {
	if n == False {
		return 0
	}
	if n == True {
		return math.Pow(2, float64(numVars))
	}
	total := m.numVars
	lvlOf := func(x Node) float64 {
		if x == True || x == False {
			return float64(total)
		}
		return float64(m.level(x))
	}
	memo := make(map[Node]float64)
	// rec(x) counts assignments over levels [level(x), total).
	var rec func(Node) float64
	rec = func(x Node) float64 {
		if x == False {
			return 0
		}
		if x == True {
			return 1
		}
		if c, ok := memo[x]; ok {
			return c
		}
		lvl := float64(m.level(x))
		clo := rec(m.low(x)) * math.Pow(2, lvlOf(m.low(x))-lvl-1)
		chi := rec(m.high(x)) * math.Pow(2, lvlOf(m.high(x))-lvl-1)
		c := clo + chi
		memo[x] = c
		return c
	}
	full := rec(n) * math.Pow(2, lvlOf(n))
	// full counts over all m.numVars variables; the requested universe is
	// numVars of them. Power-of-two scaling keeps exact small counts exact.
	return full * math.Pow(2, float64(numVars-int(total)))
}

// AnySat returns one satisfying assignment of n as a map from variable index
// to value, covering only the variables it had to decide. It returns nil
// if n is unsatisfiable. The chosen witness depends only on the function —
// at each step the smallest support variable (by index, not level) is fixed,
// preferring false — so it is deterministic across runs, worker counts, and
// variable orders. Under the identity order this coincides with the
// classic leftmost-path descent.
func (m *Manager) AnySat(n Node) map[int]bool {
	if n == False {
		return nil
	}
	assign := make(map[int]bool)
	// Restricting only shrinks the support, so one pass in index order meets
	// each smallest remaining variable in turn; one that has left the support
	// restricts to n itself.
	for _, v := range m.Support(n) {
		f0 := m.Restrict(n, v, false)
		switch {
		case f0 == n:
		case f0 != False:
			assign[v] = false
			n = f0
		default:
			assign[v] = true
			n = m.Restrict(n, v, true)
		}
	}
	return assign
}

// Eval evaluates n under a complete assignment (missing variables default to
// false).
func (m *Manager) Eval(n Node, assign map[int]bool) bool {
	for n != True && n != False {
		if assign[int(m.level2var[m.level(n)])] {
			n = m.high(n)
		} else {
			n = m.low(n)
		}
	}
	return n == True
}

// ClearCaches drops the default worker's memo tables (the unique table is
// retained, so existing handles stay valid). Useful between large
// independent phases. Per-goroutine Workers clear their own caches with
// ClearCache.
func (m *Manager) ClearCaches() {
	m.def.ClearCache()
}

// UniqueStats returns the cumulative unique-table statistics: hits are mk
// lookups answered by an existing canonical node, created is the number of
// nodes hash-consed over the manager's lifetime (the misses). created is
// monotone — reclamation lowers NumNodes but never created — so telemetry
// can difference successive reads for growth rates. Safe for concurrent
// use; both are consistent sums across stripes only when no mk races the
// read, which telemetry callers satisfy by sampling at round boundaries.
func (m *Manager) UniqueStats() (hits, created int64) {
	for i := range m.unique {
		hits += m.unique[i].hits.Load()
	}
	return hits, m.created()
}

// Pin marks nodes as externally referenced: they (and everything reachable
// from them) survive every Reclaim until a matching Unpin. Pins are
// refcounted, so independent owners may pin the same node. Constants need
// no pin. Safe for concurrent use.
func (m *Manager) Pin(ns ...Node) {
	m.pinMu.Lock()
	for _, n := range ns {
		if n&^1 == 0 {
			continue
		}
		m.pinned[n&^1]++
	}
	m.pinMu.Unlock()
}

// Unpin releases pins taken by Pin. Unpinning below zero panics: it means
// an owner released a handle it never pinned, which would silently expose
// another owner's nodes to reclamation.
func (m *Manager) Unpin(ns ...Node) {
	m.pinMu.Lock()
	for _, n := range ns {
		if n&^1 == 0 {
			continue
		}
		k := n &^ 1
		c, ok := m.pinned[k]
		if !ok {
			m.pinMu.Unlock()
			panic("bdd: Unpin without matching Pin")
		}
		if c == 1 {
			delete(m.pinned, k)
		} else {
			m.pinned[k] = c - 1
		}
	}
	m.pinMu.Unlock()
}

// Gen returns the reclamation generation: it increments on every Reclaim.
// External memo structures keyed by node handles (e.g. SPF's conversion
// cache) compare it against the generation they were built under and flush
// when it moved, exactly as Workers invalidate their op caches.
func (m *Manager) Gen() uint64 { return m.gen.Load() }

// PinnedCount returns the number of distinct pinned handles (not the
// refcount sum). Telemetry only.
func (m *Manager) PinnedCount() int {
	m.pinMu.Lock()
	n := len(m.pinned)
	m.pinMu.Unlock()
	return n
}

// ReclaimStats are the manager's cumulative reclamation counters.
type ReclaimStats struct {
	// Runs counts completed Reclaim calls.
	Runs int64
	// Freed is the total number of slab slots released across all runs.
	Freed int64
	// Pause is the total stop-the-world time across all runs.
	Pause time.Duration
	// Live is the current live node count (same as NumNodes).
	Live int64
}

// ReclaimStats returns the cumulative reclamation counters. Safe for
// concurrent use.
func (m *Manager) ReclaimStats() ReclaimStats {
	return ReclaimStats{
		Runs:  m.rcRuns.Load(),
		Freed: m.rcFreed.Load(),
		Pause: time.Duration(m.rcPause.Load()),
		Live:  m.live(),
	}
}

// CreatedAtReclaim returns the hash-consed node count (UniqueStats'
// created) as of the end of the last Reclaim, 0 before the first.
func (m *Manager) CreatedAtReclaim() int64 { return m.rcCreated.Load() }

// Reclaim frees every node not reachable from the given roots or from the
// Pin set: a stop-the-world mark-and-sweep over the slab. Live handles are
// never renumbered; dead slots go on a free list for reuse by later mk
// calls, each unique-table stripe is compacted to its surviving
// population, and dead fingerprint memos are dropped. The mark, the
// compaction and the free-list scan each run on GOMAXPROCS goroutines;
// the result does not depend on how many. Returns the number of slots
// freed.
//
// The caller must guarantee quiescence: no other goroutine may use the
// Manager (or any Worker) during the call, and goroutines resuming
// afterwards must be ordered after it (e.g. by a channel barrier). Any
// handle not covered by roots or pins is invalid after Reclaim — along
// with anything derived from it, such as memo keys embedding handle
// numbers. Worker memos are invalidated automatically (lazily, via a
// generation counter) on the next operation.
func (m *Manager) Reclaim(roots ...Node) int {
	// The live population is at a local maximum right before a sweep, so
	// reclaim entry is one of the watermark's canonical sample points.
	m.NoteWatermark()
	start := time.Now()
	before := m.live()
	n := uint32(m.next.Load())
	marked := make([]uint64, (n+63)/64)
	marked[0] = 1 // the shared constant is always live
	m.pinMu.Lock()
	seeds := make([]Node, 0, len(m.pinned)+len(roots))
	for p := range m.pinned {
		seeds = append(seeds, p)
	}
	m.pinMu.Unlock()
	m.mark(marked, append(seeds, roots...))
	keep := func(idx uint32) bool {
		return marked[idx>>6]&(1<<(idx&63)) != 0
	}
	// Compact every stripe and take its free-list batch back (the sweep
	// files those slots again). Each stripe owns its table and lock, so
	// the stripes compact in parallel; nothing writes marked meanwhile.
	fanOut(numStripes, func(i int) {
		st := &m.unique[i]
		st.mu.Lock()
		st.compact(keep)
		st.spare = st.spare[:0]
		st.mu.Unlock()
	})
	// A stripe's unused fresh block stays reserved, so the sweep skips it.
	reserved := int64(0)
	for i := range m.unique {
		st := &m.unique[i]
		for idx := st.blk; idx < st.blkEnd; idx++ {
			marked[idx>>6] |= 1 << (idx & 63)
		}
		reserved += int64(st.blkEnd - st.blk)
	}
	m.freeMu.Lock()
	m.free = sweepFree(marked, n, m.free[:0])
	live := int64(n) - int64(len(m.free)) - reserved
	m.nFree.Store(int64(len(m.free)))
	m.freeMu.Unlock()
	freed := int(before - live)
	m.dropped.Add(int64(freed))
	m.fps.Range(func(k, _ any) bool {
		if !keep(uint32(k.(Node)) >> 1) {
			m.fps.Delete(k)
		}
		return true
	})
	m.gen.Add(1)
	m.rcCreated.Store(m.created())
	pause := int64(time.Since(start))
	m.rcRuns.Add(1)
	m.rcFreed.Add(int64(freed))
	m.rcPause.Add(pause)
	globalRcRuns.Add(1)
	globalRcFreed.Add(int64(freed))
	globalRcPause.Add(pause)
	return freed
}

// fanOut calls fn(i) for every i in [0,n) on up to GOMAXPROCS goroutines
// and returns when all calls have. It is the sweep's own fan-out: the
// engine's worker pool lives above this package, and no engine worker runs
// during a sweep, so every core is free for it.
func fanOut(n int, fn func(i int)) {
	procs := min(runtime.GOMAXPROCS(0), n)
	if procs <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		wg     sync.WaitGroup
		cursor atomic.Int64
	)
	wg.Add(procs)
	for g := 0; g < procs; g++ {
		go func() {
			defer wg.Done()
			for i := int(cursor.Add(1)) - 1; i < n; i = int(cursor.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// mark sets the bit of every slab index reachable from seeds. Goroutines
// take seeds from a shared cursor and walk them depth-first with private
// stacks; a node is expanded by the goroutine whose compare-and-swap set
// its bit, so each is expanded once however the walks overlap.
func (m *Manager) mark(marked []uint64, seeds []Node) {
	var next atomic.Int64
	fanOut(runtime.GOMAXPROCS(0), func(int) {
		var stack []Node
		for i := int(next.Add(1)) - 1; i < len(seeds); i = int(next.Add(1)) - 1 {
			stack = append(stack[:0], seeds[i])
			for len(stack) > 0 {
				idx := uint32(stack[len(stack)-1]) >> 1
				stack = stack[:len(stack)-1]
				if !setMark(marked, idx) {
					continue
				}
				if nd := m.slot(idx); nd.level != maxLevel {
					stack = append(stack, nd.low, nd.high)
				}
			}
		}
	})
}

// setMark sets idx's bit and reports whether this call set it.
func setMark(marked []uint64, idx uint32) bool {
	w, bit := &marked[idx>>6], uint64(1)<<(idx&63)
	for {
		old := atomic.LoadUint64(w)
		if old&bit != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(w, old, old|bit) {
			return true
		}
	}
}

// sweepFree writes every unmarked slab index in [1,n) into free, ascending,
// and returns it. Ranges of the bitmap are counted and then filled in
// parallel, each into its own section of the list, so the order is the
// serial scan's.
func sweepFree(marked []uint64, n uint32, free []int32) []int32 {
	// Four ranges per goroutine even out dense and sparse stretches of the
	// slab; a range spans at least 64 K slots.
	words := len(marked)
	span := max(1024, (words+4*runtime.GOMAXPROCS(0)-1)/(4*runtime.GOMAXPROCS(0)))
	parts := (words + span - 1) / span
	unmarked := func(w int) uint64 {
		x := ^marked[w]
		// Bits past n in the last word are clear but name no slab slot.
		if rest := n - uint32(w)<<6; rest < 64 {
			x &= 1<<rest - 1
		}
		return x
	}
	counts := make([]int, parts+1)
	fanOut(parts, func(p int) {
		c := 0
		for w := p * span; w < min(words, (p+1)*span); w++ {
			c += bits.OnesCount64(unmarked(w))
		}
		counts[p+1] = c
	})
	for p := 1; p <= parts; p++ {
		counts[p] += counts[p-1]
	}
	if total := counts[parts]; cap(free) >= total {
		free = free[:total]
	} else {
		free = make([]int32, total)
	}
	fanOut(parts, func(p int) {
		out := free[counts[p]:counts[p]]
		for w := p * span; w < min(words, (p+1)*span); w++ {
			for x := unmarked(w); x != 0; x &= x - 1 {
				out = append(out, int32(w<<6+bits.TrailingZeros64(x)))
			}
		}
	})
	return free
}

// Process-wide reclamation aggregates across every Manager, bumped once
// per sweep. A serving process creates and drops managers as verification
// chains come and go; per-manager counters vanish with their manager,
// while these stay monotone for /metrics-style scrapes.
var (
	globalRcRuns  atomic.Int64
	globalRcFreed atomic.Int64
	globalRcPause atomic.Int64
)

// GlobalReclaimStats returns the process-wide reclamation counters summed
// over all managers, past and present. Live is always 0 here: a live
// population only makes sense per manager.
func GlobalReclaimStats() ReclaimStats {
	return ReclaimStats{
		Runs:  globalRcRuns.Load(),
		Freed: globalRcFreed.Load(),
		Pause: time.Duration(globalRcPause.Load()),
	}
}

// fpPrime is the Mersenne prime 2^61−1, the field the fingerprint's
// multilinear evaluation runs in. Two independent evaluation points per
// variable give an effective ~122-bit fingerprint.
const fpPrime = 1<<61 - 1

// fpFold reduces a value < 2^64 toward the canonical residue mod fpPrime
// (one fold leaves the value < 2^61 + 7; callers compare via canonical
// forms produced by fpAdd/fpSub/fpMul, which finish the reduction).
func fpFold(x uint64) uint64 {
	x = (x >> 61) + (x & fpPrime)
	if x >= fpPrime {
		x -= fpPrime
	}
	return x
}

// fpMul multiplies two residues mod fpPrime using a 128-bit product and
// the identity 2^64 ≡ 8 (mod 2^61−1).
func fpMul(a, b uint64) uint64 {
	h, l := bits.Mul64(a, b)
	// a·b = h·2^64 + l ≡ 8h + (l mod 2^61·…)  — fold in two steps.
	s := (h << 3) | (l >> 61)
	return fpFold(fpFold(s) + (l & fpPrime))
}

func fpAdd(a, b uint64) uint64 { return fpFold(a + b) }

func fpSub(a, b uint64) uint64 { return fpFold(a + fpPrime - b) }

// fpMix is the splitmix64 finalizer, used to derive per-variable
// evaluation points deterministically from the variable index.
func fpMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// growFpPoints extends the per-variable fingerprint evaluation points to
// cover all current variables. Points are a pure function of the variable
// INDEX (not its level), which is what makes Fingerprint independent of
// the variable order. Called at construction and from AddVarsOrdered.
func (m *Manager) growFpPoints() {
	for v := len(m.fpPts); v < m.numVars; v++ {
		m.fpPts = append(m.fpPts, [2]uint64{
			fpFold(fpMix(uint64(v)*2 + 0x9e3779b97f4a7c15)),
			fpFold(fpMix(uint64(v)*2 + 0xc2b2ae3d27d4eb4f)),
		})
	}
}

// Fingerprint returns a ~122-bit semantic fingerprint of n: the
// multilinear extension of the Boolean function evaluated at a fixed
// random-looking point of GF(2^61−1)^numVars, on two independent
// coordinate sets (hi, lo). fp(False)=0, fp(True)=1, fp(¬f)=1−fp(f), and
// fp(node v,lo,hi) = (1−r_v)·fp(lo) + r_v·fp(hi) where r_v depends only on
// the variable index v. Two handles have equal fingerprints iff they
// represent the same function (up to negligible collision probability), in
// this run or any other — independent of handle numbers, goroutine
// scheduling, reclamation history, AND the manager's variable order, so
// fingerprint-derived report orderings survive dynamic reordering
// unchanged. Memoized per regular handle; the memo survives Reorder
// (the function a handle denotes is preserved). Safe for concurrent use.
func (m *Manager) Fingerprint(n Node) (hi, lo uint64) {
	switch n {
	case False:
		return 0, 0
	case True:
		return 1, 1
	}
	if n&1 != 0 {
		rhi, rlo := m.Fingerprint(n ^ 1)
		return fpSub(1, rhi), fpSub(1, rlo)
	}
	if v, ok := m.fps.Load(n); ok {
		fp := v.([2]uint64)
		return fp[0], fp[1]
	}
	nd := m.nodeAt(n)
	lhi, llo := m.Fingerprint(nd.low)
	hhi, hlo := m.Fingerprint(nd.high)
	pt := m.fpPts[m.level2var[nd.level]]
	hi = fpAdd(fpMul(fpSub(1, pt[0]), lhi), fpMul(pt[0], hhi))
	lo = fpAdd(fpMul(fpSub(1, pt[1]), llo), fpMul(pt[1], hlo))
	m.fps.Store(n, [2]uint64{hi, lo})
	return hi, lo
}

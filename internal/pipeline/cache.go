package pipeline

import (
	"container/list"
	"sync"
)

// Capacities sets per-stage LRU capacities for NewStageCache. Zero means
// the stage's default; negative disables that stage's cache (every Get
// misses, Add is a no-op).
//
// The defaults are shaped by artifact weight: SRC artifacts pin a whole
// BDD manager plus converged RIBs (often the bulk of a run's heap), so
// only a handful are retained; SPF artifacts pin PECs and FIB predicates
// in the same manager; analysis artifacts and reports are plain values
// and cheap to keep by the hundreds.
type Capacities struct {
	Load       int // parsed networks; default 32
	SRC        int // converged EPVP fixed points; default 4
	Routing    int // routing-analysis violation sets; default 128
	SPF        int // symbolic forwarding results; default 8
	Forwarding int // forwarding-analysis violation sets; default 128
	Report     int // assembled reports; default 128
}

func (c Capacities) normalized() Capacities {
	def := func(v, d int) int {
		if v == 0 {
			return d
		}
		return v
	}
	return Capacities{
		Load:       def(c.Load, 32),
		SRC:        def(c.SRC, 4),
		Routing:    def(c.Routing, 128),
		SPF:        def(c.SPF, 8),
		Forwarding: def(c.Forwarding, 128),
		Report:     def(c.Report, 128),
	}
}

// StageStat is one stage's cache counters, reported by Stats and exported
// on the service's /metrics endpoint.
type StageStat struct {
	Stage   string
	Hits    int64
	Misses  int64
	Entries int
	// WarmStarts counts SRC computations seeded from a cached prior fixed
	// point instead of the cold initial state (only ever non-zero for the
	// src stage).
	WarmStarts int64
}

// StageCache is the stage-granular LRU cache: one bounded LRU per pipeline
// stage, with per-stage hit/miss counters. It replaces the service's
// whole-report-only cache — a report lookup that misses can still reuse
// every upstream artifact the request has in common with earlier runs.
// All methods are safe for concurrent use; cached artifacts are shared
// between requests and must be treated as immutable (computation on a
// shared SRC artifact's engine is serialized by the artifact's run lock,
// not by this cache).
type StageCache struct {
	mu     sync.Mutex
	stages map[string]*stageLRU
}

type stageLRU struct {
	cap     int
	order   *list.List // front = most recently used; values are *stageEntry
	entries map[string]*list.Element
	hits    int64
	misses  int64
	warms   int64
}

type stageEntry struct {
	key string
	val any
}

// NewStageCache builds the per-stage LRUs.
func NewStageCache(caps Capacities) *StageCache {
	caps = caps.normalized()
	byStage := map[string]int{
		StageLoad:       caps.Load,
		StageSRC:        caps.SRC,
		StageRouting:    caps.Routing,
		StageSPF:        caps.SPF,
		StageForwarding: caps.Forwarding,
		StageReport:     caps.Report,
	}
	c := &StageCache{stages: map[string]*stageLRU{}}
	for stage, n := range byStage {
		c.stages[stage] = &stageLRU{cap: n, order: list.New(), entries: map[string]*list.Element{}}
	}
	return c
}

// Get returns the cached artifact for (stage, key), marking it most
// recently used and counting a hit or miss.
func (c *StageCache) Get(stage, key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.stages[stage]
	if !ok {
		return nil, false
	}
	el, ok := s.entries[key]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.order.MoveToFront(el)
	return el.Value.(*stageEntry).val, true
}

// Add inserts or refreshes the artifact for (stage, key), evicting the
// stage's least recently used entry when full.
func (c *StageCache) Add(stage, key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.stages[stage]
	if !ok || s.cap <= 0 {
		return
	}
	if el, ok := s.entries[key]; ok {
		old := el.Value.(*stageEntry).val
		el.Value.(*stageEntry).val = val
		s.order.MoveToFront(el)
		if p, ok := old.(artifact); ok && old != val {
			p.unpinHandles()
		}
		return
	}
	s.entries[key] = s.order.PushFront(&stageEntry{key: key, val: val})
	for s.order.Len() > s.cap {
		last := s.order.Back()
		s.order.Remove(last)
		e := last.Value.(*stageEntry)
		delete(s.entries, e.key)
		// Release the evicted artifact's reclamation pins: its BDD handles
		// may now be collected by the next sweep in its manager. Requests
		// still holding the artifact are unaffected until they release
		// their run lock (sweeps are serialized behind it) and every sweep
		// roots its own request's working set explicitly.
		if p, ok := e.val.(artifact); ok {
			p.unpinHandles()
		}
	}
}

// Scan visits the stage's entries from most to least recently used until
// fn returns true, without disturbing recency or counters. The warm-start
// path uses it to find a compatible prior SRC artifact after an exact-key
// miss.
func (c *StageCache) Scan(stage string, fn func(val any) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.stages[stage]
	if !ok {
		return
	}
	for el := s.order.Front(); el != nil; el = el.Next() {
		if fn(el.Value.(*stageEntry).val) {
			return
		}
	}
}

// NoteWarm counts one warm-started SRC computation.
func (c *StageCache) NoteWarm() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.stages[StageSRC]; ok {
		s.warms++
	}
}

// Len reports the number of cached entries in one stage.
func (c *StageCache) Len(stage string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.stages[stage]
	if !ok {
		return 0
	}
	return s.order.Len()
}

// Stats snapshots every stage's counters in pipeline order.
func (c *StageCache) Stats() []StageStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]StageStat, 0, len(stageOrder))
	for _, stage := range stageOrder {
		s := c.stages[stage]
		out = append(out, StageStat{
			Stage:      stage,
			Hits:       s.hits,
			Misses:     s.misses,
			Entries:    s.order.Len(),
			WarmStarts: s.warms,
		})
	}
	return out
}

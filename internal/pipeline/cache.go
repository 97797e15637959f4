package pipeline

import (
	"strings"
	"sync"
	"sync/atomic"
)

// StageStat is one stage's cache counters, reported by Stats and exported
// on the service's /metrics endpoint.
type StageStat struct {
	Stage  string
	Hits   int64
	Misses int64
	// Entries is the tier's population: for the src stage the resident SRC
	// artifacts, which are the registered baselines'; for the routing, SPF
	// and forwarding stages the derived artifacts resident on them.
	Entries int
	// WarmStarts counts SRC computations seeded from a registered
	// baseline's fixed point instead of the cold initial state (only ever
	// non-zero for the src stage).
	WarmStarts int64
}

// tally counts one stage's memory lookups.
type tally struct{ hits, misses atomic.Int64 }

func (t *tally) count(hit bool) {
	if hit {
		t.hits.Add(1)
	} else {
		t.misses.Add(1)
	}
}

// Tier is the one bounded table: a counted LRU, most recently used first,
// safe for concurrent use; the zero value has no capacity and keeps nothing.
// Its values are shared between requests and must be treated as immutable.
// Capacities are at most a hundred or so, so a lookup is a scan.
type Tier[V any] struct {
	mu      sync.Mutex
	cap     int
	entries []tierEntry[V]
	tally
}

type tierEntry[V any] struct {
	key string
	val V
}

// Get returns key's value, marking it most recently used and counting a
// hit or a miss.
func (t *Tier[V]) Get(key string) (V, bool) {
	val, ok := t.Probe(key)
	if !ok {
		t.count(false)
	}
	return val, ok
}

// Probe is Get for a caller whose miss is followed by the counted Get of the
// same key — the service's submit path, ahead of the job it enqueues: only a
// hit counts, so a request is one lookup on /metrics.
func (t *Tier[V]) Probe(key string) (val V, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, e := range t.entries {
		if e.key == key {
			copy(t.entries[1:i+1], t.entries[:i])
			t.entries[0] = e
			t.count(true)
			return e.val, true
		}
	}
	return val, false
}

// Add files val under key as the most recently used entry and returns the
// value that left the table for it, if one did: the one key held before, the
// least recently used one past capacity, or val itself when the tier keeps
// nothing.
func (t *Tier[V]) Add(key string, val V) (dropped V, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cap <= 0 {
		return val, true
	}
	entries := append(make([]tierEntry[V], 0, t.cap), tierEntry[V]{key, val})
	for _, e := range t.entries {
		if e.key == key || len(entries) == t.cap {
			dropped, ok = e.val, true
		} else {
			entries = append(entries, e)
		}
	}
	t.entries = entries
	return dropped, ok
}

// Len reports the tier's population.
func (t *Tier[V]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// Counters tallies the memory lookups of every stage a Runner resolves after
// Load, which has no tier, and its warm starts.
type Counters struct {
	src, routing, spf, forwarding tally
	warms                         atomic.Int64
}

// StageCache is a verifier's one memory tier, assembled reports (R is the
// report type), and the counters of the stages its Runner resolves. Only what
// a later request reads has a tier: a report is a plain value, cheap to keep
// by the dozen, and a request the report tier cannot answer is a new text or
// a new option set. A fixed point is kept only by a registered baseline,
// which a request names; everything a run builds on an SRC artifact
// (routing, SPF and forwarding artifacts) is kept by that artifact
// (SRCArtifact.adopt). The zero value keeps no report.
type StageCache[R any] struct {
	Counters Counters
	Report   Tier[R]
}

// SetReportCap sizes the report tier; it is called once, before first use.
// Zero means 128; negative keeps none.
func (c *StageCache[R]) SetReportCap(n int) {
	if n == 0 {
		n = 128
	}
	c.Report.cap = n
}

// Stats snapshots, in pipeline order, the counters of every stage after
// Load. The resident SRC artifacts are held, one per registered baseline; the
// derived stages' entries are counted over them — a stage key begins with its
// stage's name.
func (c *StageCache[R]) Stats(held ...*SRCArtifact) []StageStat {
	resident := map[string]int{}
	for _, a := range held {
		a.derived.mu.Lock()
		for _, e := range a.derived.entries {
			stage, _, _ := strings.Cut(e.key, "|")
			resident[stage]++
		}
		a.derived.mu.Unlock()
	}
	stat := func(stage string, t *tally, entries int) StageStat {
		return StageStat{Stage: stage, Hits: t.hits.Load(), Misses: t.misses.Load(), Entries: entries}
	}
	n := &c.Counters
	out := []StageStat{
		stat(StageSRC, &n.src, len(held)),
		stat(StageRouting, &n.routing, resident[StageRouting]),
		stat(StageSPF, &n.spf, resident[StageSPF]),
		stat(StageForwarding, &n.forwarding, resident[StageForwarding]),
		stat(StageReport, &c.Report.tally, c.Report.Len()),
	}
	out[0].WarmStarts = n.warms.Load()
	return out
}

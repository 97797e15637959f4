package pipeline

import (
	"strings"
	"sync"
	"sync/atomic"
)

// Capacities sets the LRU capacity of each memory tier for
// StageCache.SetCapacities. Zero means the tier's default; negative disables
// it (every Get misses, nothing is kept).
//
// Only what a later request reads has a tier: assembled reports are plain
// values, cheap to keep by the dozen, and an SRC artifact owns (or shares
// with its baseline) a whole BDD manager plus converged RIBs — often the
// bulk of a run's heap — so only a handful are retained. A parsed network
// has none: a request the report tier cannot answer is a new text or a new
// option set, and the SRC artifact it resolves keeps the network it was
// computed from. Routing, SPF and forwarding artifacts are handles into an
// SRC artifact's manager and are kept by that artifact (SRCArtifact.adopt),
// not here.
type Capacities struct {
	SRC    int // converged EPVP fixed points; default 4
	Report int // assembled reports; default 128
}

// StageStat is one stage's cache counters, reported by Stats and exported
// on the service's /metrics endpoint.
type StageStat struct {
	Stage  string
	Hits   int64
	Misses int64
	// Entries is the tier's population; for the routing, SPF and forwarding
	// stages, the derived artifacts resident on the SRC artifacts counted.
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
// Capacities are at most a few dozen, so a lookup is a scan.
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

// Values snapshots the tier, most recently used first.
func (t *Tier[V]) Values() []V {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]V, len(t.entries))
	for i, e := range t.entries {
		out[i] = e.val
	}
	return out
}

// Len reports the tier's population.
func (t *Tier[V]) Len() int { return len(t.Values()) }

// SRCCache is the SRC tier — the one tier a Runner reads and fills — plus
// the lookup counters of the three stages derived from it. The tier is a
// holder of every artifact in it (SRCArtifact.retain): an evicted artifact
// unpins, with everything built on it, once its in-flight requests have let
// go too. The zero value keeps nothing: every stage of every run is cold.
type SRCCache struct {
	Tier[*SRCArtifact]
	routing, spf, forwarding tally
	warms                    atomic.Int64
}

// StageCache is a verifier's memory tiers: converged fixed points and
// assembled reports; R is the report type. The zero value keeps nothing in
// either tier.
type StageCache[R any] struct {
	SRC    SRCCache
	Report Tier[R]
}

// SetCapacities sizes the two tiers; it is called once, before first use.
func (c *StageCache[R]) SetCapacities(caps Capacities) {
	def := func(v, d int) int {
		if v == 0 {
			return d
		}
		return v
	}
	c.SRC.cap = def(caps.SRC, 4)
	c.Report.cap = def(caps.Report, 128)
}

// Stats snapshots, in pipeline order, the counters of every stage after
// Load, which has no tier. The derived stages' entries are counted — a
// stage key begins with its stage's name — over the cached SRC artifacts
// and held, the SRC artifacts kept resident outside the cache (registered
// baselines).
func (c *StageCache[R]) Stats(held ...*SRCArtifact) []StageStat {
	resident := map[string]int{}
	seen := map[*SRCArtifact]bool{}
	for _, a := range append(c.SRC.Values(), held...) {
		if seen[a] {
			continue
		}
		seen[a] = true
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
	out := []StageStat{
		stat(StageSRC, &c.SRC.tally, c.SRC.Len()),
		stat(StageRouting, &c.SRC.routing, resident[StageRouting]),
		stat(StageSPF, &c.SRC.spf, resident[StageSPF]),
		stat(StageForwarding, &c.SRC.forwarding, resident[StageForwarding]),
		stat(StageReport, &c.Report.tally, c.Report.Len()),
	}
	out[0].WarmStarts = c.SRC.warms.Load()
	return out
}

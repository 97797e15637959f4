package symbolic

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/expresso-verify/expresso/internal/bdd"
)

// RunMemo remembers the work one EPVP run repeats from round to round:
// the edge transfer of a neighbour's route (Edge), and Merge's two BDD
// steps — U \ blocked, keyed by the handle pair, and a tier's blocked ∨
// OrBalanced(survivors), keyed by blocked and the survivors' handles in
// order. Every entry is a pure function of its key, so a hit returns
// exactly what a recomputation would build — provided no key or result
// handle has been freed and its slot reused since it was stored. Whoever
// runs a dead-node sweep while the memo is in use must therefore keep Roots
// live (EPVP lists them among its run roots; pinning them would outlive the
// run).
//
// One memo serves concurrent callers, each on its own bdd.Worker: it is
// lock-striped, entries are computed outside the stripe lock, and two
// callers racing on one key store equal values. The zero value is an empty
// memo.
type RunMemo struct {
	stripes      [memoStripes]memoStripe
	hits, misses atomic.Int64
}

const memoStripes = 64

type memoStripe struct {
	mu     sync.Mutex
	edges  map[edgeKey][]*Route
	diffs  map[diffKey]bdd.Node
	unions map[unionKey]unionEntry
	_      [32]byte // keep neighboring stripes off one cache line
}

// edgeKey identifies an edge transfer without building a composite string
// per lookup: the advertising and receiving routers and the route's
// memoized Key. un is the route's U handle — fully determined by rkey
// (which embeds its digits), so it does not change key identity, but
// keeping it lets Roots root the entry: were un freed and its handle reused
// by a different predicate, a later route could collide with this entry's
// rkey.
type edgeKey struct {
	u, v string
	rkey string
	un   bdd.Node
}

func (k edgeKey) stripe() uint32 {
	h := uint32(2166136261)
	for _, s := range [3]string{k.u, k.v, k.rkey} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint32(s[i])) * 16777619
		}
	}
	return h % memoStripes
}

type diffKey struct{ u, blocked bdd.Node }

// unionKey identifies a tier union by blocked and a hash of the survivor
// list; the entry keeps the list itself, so a hash collision is a miss.
type unionKey struct {
	blocked bdd.Node
	h       uint64
}

type unionEntry struct {
	kept []bdd.Node
	out  bdd.Node
}

// fnvOffset starts a mix chain.
const fnvOffset uint64 = 14695981039346656037

// mix folds n into the FNV-1a style running hash h.
func mix(h uint64, n bdd.Node) uint64 {
	return (h ^ uint64(uint32(n))) * 0x100000001b3
}

func (m *RunMemo) stripe(h uint64) *memoStripe {
	h ^= h >> 29
	return &m.stripes[h%memoStripes]
}

// Edge returns the routes v accepts when u advertises r, as transfer
// computes them (EPVP's import∘export), once per (u, v, r.Key()) for the
// memo's life. transfer runs outside the stripe lock. Its outputs are
// sealed before they are published and shared with every later caller,
// which must treat them as immutable (Merge clones before mutating). Edge
// lookups count in neither Stats figure.
func (m *RunMemo) Edge(u, v string, r *Route, transfer func() []*Route) []*Route {
	k := edgeKey{u: u, v: v, rkey: r.Key(), un: r.U}
	st := &m.stripes[k.stripe()]
	if out, ok := load(st, &st.edges, k); ok {
		return out
	}
	out := transfer()
	for _, o := range out {
		o.Seal()
	}
	store(st, &st.edges, k, out)
	return out
}

// load and store are a stripe's locked map accesses; each map starts nil
// and is made by its first store.
func load[K comparable, V any](st *memoStripe, m *map[K]V, k K) (V, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	v, ok := (*m)[k]
	return v, ok
}

func store[K comparable, V any](st *memoStripe, m *map[K]V, k K, v V) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if *m == nil {
		*m = map[K]V{}
	}
	(*m)[k] = v
}

func (m *RunMemo) count(hit bool) {
	if hit {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
}

// diff returns u \ blocked. The first tier's blocked is empty, a terminal
// case that needs no entry.
func (m *RunMemo) diff(w *bdd.Worker, u, blocked bdd.Node) bdd.Node {
	if blocked == bdd.False {
		return u
	}
	k := diffKey{u, blocked}
	st := m.stripe(mix(mix(fnvOffset, u), blocked))
	out, ok := load(st, &st.diffs, k)
	m.count(ok)
	if ok {
		return out
	}
	out = w.Diff(u, blocked)
	store(st, &st.diffs, k, out)
	return out
}

// union returns blocked ∨ OrBalanced(kept) (kept non-empty). kept is copied
// on a miss; the caller may reuse it. A lone survivor over an empty blocked
// is a terminal case.
func (m *RunMemo) union(w *bdd.Worker, blocked bdd.Node, kept []bdd.Node) bdd.Node {
	if blocked == bdd.False && len(kept) == 1 {
		return kept[0]
	}
	h := mix(fnvOffset, blocked)
	for _, n := range kept {
		h = mix(h, n)
	}
	k := unionKey{blocked, h}
	st := m.stripe(h)
	e, ok := load(st, &st.unions, k)
	ok = ok && slices.Equal(e.kept, kept)
	m.count(ok)
	if ok {
		return e.out
	}
	out := w.Or(blocked, OrBalanced(w, kept))
	store(st, &st.unions, k, unionEntry{slices.Clone(kept), out})
	return out
}

// Stats returns the cumulative merge lookups answered from the memo and
// those computed afresh. Terminal cases count as neither.
func (m *RunMemo) Stats() (hits, misses int64) {
	return m.hits.Load(), m.misses.Load()
}

// Roots appends every handle the memo holds — operands and results — to
// out: the roots a dead-node sweep must keep for the entries to stay valid.
func (m *RunMemo) Roots(out []bdd.Node) []bdd.Node {
	for i := range m.stripes {
		st := &m.stripes[i]
		st.mu.Lock()
		for k, rs := range st.edges {
			out = append(out, k.un)
			for _, r := range rs {
				out = append(out, r.U)
			}
		}
		for k, n := range st.diffs {
			out = append(out, k.u, k.blocked, n)
		}
		for k, e := range st.unions {
			out = append(out, k.blocked, e.out)
			out = append(out, e.kept...)
		}
		st.mu.Unlock()
	}
	return out
}

// Check recomputes every Merge entry on w, bypassing the memo, and returns
// an error naming the first whose stored result differs — the consistency
// test for a memo that has lived through sweeps. Edge entries keep no
// input route to recompute from; their callers check them through Edge.
func (m *RunMemo) Check(w *bdd.Worker) error {
	for i := range m.stripes {
		if err := m.stripes[i].check(w); err != nil {
			return err
		}
	}
	return nil
}

func (st *memoStripe) check(w *bdd.Worker) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	for k, n := range st.diffs {
		if got := w.Diff(k.u, k.blocked); got != n {
			return fmt.Errorf("symbolic: merge memo holds %d \\ %d = %d, recomputed %d", k.u, k.blocked, n, got)
		}
	}
	for k, e := range st.unions {
		if got := w.Or(k.blocked, OrBalanced(w, e.kept)); got != e.out {
			return fmt.Errorf("symbolic: merge memo holds %d ∨ ⋃%v = %d, recomputed %d", k.blocked, e.kept, e.out, got)
		}
	}
	return nil
}

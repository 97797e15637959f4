package symbolic

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/expresso-verify/expresso/internal/bdd"
)

// MergeMemo remembers the results of Merge's two BDD steps: U \ blocked,
// keyed by the handle pair, and a tier's blocked ∨ orBalanced(survivors),
// keyed by blocked and the survivors' handles in order. Both are pure
// functions of canonical handles, so a hit returns exactly the handle a
// recomputation would build — provided no key or result handle has been
// freed and its slot reused since it was stored. Whoever runs a dead-node
// sweep while the memo is in use must therefore keep Roots live (EPVP lists
// them among its run roots; pinning them would outlive the run).
//
// One memo serves concurrent Merge calls, each on its own bdd.Worker: it is
// lock-striped, and two callers racing on one key store the same canonical
// handle. The zero value is an empty memo.
type MergeMemo struct {
	stripes      [mergeStripes]mergeStripe
	hits, misses atomic.Int64
}

const mergeStripes = 64

type mergeStripe struct {
	mu     sync.Mutex
	diffs  map[diffKey]bdd.Node
	unions map[unionKey]unionEntry
	_      [40]byte // keep neighboring stripes off one cache line
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

func (m *MergeMemo) stripe(h uint64) *mergeStripe {
	h ^= h >> 29
	return &m.stripes[h%mergeStripes]
}

func (m *MergeMemo) count(hit bool) {
	if hit {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
}

// diff returns u \ blocked. The first tier's blocked is empty, a terminal
// case that needs no entry.
func (m *MergeMemo) diff(w *bdd.Worker, u, blocked bdd.Node) bdd.Node {
	if blocked == bdd.False {
		return u
	}
	k := diffKey{u, blocked}
	st := m.stripe(mix(mix(fnvOffset, u), blocked))
	st.mu.Lock()
	out, ok := st.diffs[k]
	st.mu.Unlock()
	m.count(ok)
	if ok {
		return out
	}
	out = w.Diff(u, blocked)
	st.mu.Lock()
	if st.diffs == nil {
		st.diffs = map[diffKey]bdd.Node{}
	}
	st.diffs[k] = out
	st.mu.Unlock()
	return out
}

// union returns blocked ∨ orBalanced(kept) (kept non-empty). kept is copied
// on a miss; the caller may reuse it. A lone survivor over an empty blocked
// is a terminal case.
func (m *MergeMemo) union(w *bdd.Worker, blocked bdd.Node, kept []bdd.Node) bdd.Node {
	if blocked == bdd.False && len(kept) == 1 {
		return kept[0]
	}
	h := mix(fnvOffset, blocked)
	for _, n := range kept {
		h = mix(h, n)
	}
	k := unionKey{blocked, h}
	st := m.stripe(h)
	st.mu.Lock()
	e, ok := st.unions[k]
	st.mu.Unlock()
	ok = ok && slices.Equal(e.kept, kept)
	m.count(ok)
	if ok {
		return e.out
	}
	out := w.Or(blocked, orBalanced(w, kept))
	st.mu.Lock()
	if st.unions == nil {
		st.unions = map[unionKey]unionEntry{}
	}
	st.unions[k] = unionEntry{slices.Clone(kept), out}
	st.mu.Unlock()
	return out
}

// Stats returns the cumulative lookups answered from the memo and those
// computed afresh. Terminal cases count as neither.
func (m *MergeMemo) Stats() (hits, misses int64) {
	return m.hits.Load(), m.misses.Load()
}

// Roots appends every handle the memo holds — operands and results — to
// out: the roots a dead-node sweep must keep for the entries to stay valid.
func (m *MergeMemo) Roots(out []bdd.Node) []bdd.Node {
	for i := range m.stripes {
		st := &m.stripes[i]
		st.mu.Lock()
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

// Check recomputes every entry on w, bypassing the memo, and returns an
// error naming the first whose stored result differs — the consistency
// test for a memo that has lived through sweeps.
func (m *MergeMemo) Check(w *bdd.Worker) error {
	for i := range m.stripes {
		if err := m.stripes[i].check(w); err != nil {
			return err
		}
	}
	return nil
}

func (st *mergeStripe) check(w *bdd.Worker) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	for k, n := range st.diffs {
		if got := w.Diff(k.u, k.blocked); got != n {
			return fmt.Errorf("symbolic: merge memo holds %d \\ %d = %d, recomputed %d", k.u, k.blocked, n, got)
		}
	}
	for k, e := range st.unions {
		if got := w.Or(k.blocked, orBalanced(w, e.kept)); got != e.out {
			return fmt.Errorf("symbolic: merge memo holds %d ∨ ⋃%v = %d, recomputed %d", k.blocked, e.kept, e.out, got)
		}
	}
	return nil
}

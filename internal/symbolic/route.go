package symbolic

import (
	"fmt"
	"sort"
	"strings"

	"github.com/expresso-verify/expresso/internal/automaton"
	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/community"
	"github.com/expresso-verify/expresso/internal/route"
)

// Route is a symbolic route (Equation 1 of the paper): a predicate U over
// prefix and advertiser variables, a symbolic AS path (a regular language),
// a symbolic community list, and concrete shared attributes. It represents
// the set of concrete routes obtained by unfolding (Equation 2).
type Route struct {
	// U is the prefix-environment predicate in the control-plane Space.
	U bdd.Node
	// ASPath is the symbolic AS path. A nil ASPath means the engine runs in
	// concrete-AS-path mode ("Expresso-") and ASLen carries the length.
	ASPath *automaton.Automaton
	// ASLen is the AS-path length used for preference comparison: the
	// shortest accepted word of ASPath (kept in sync by Normalize), or the
	// concrete length in Expresso- mode.
	ASLen int
	// Comm is the symbolic community list in the community Space.
	Comm bdd.Node

	// Concrete attributes (§4.2 "other attributes").
	LocalPref uint32
	MED       uint32
	Origin    route.Origin

	// Propagation metadata.
	// NextHop is the neighbor the route was learned from ("" if local).
	NextHop string
	// Originator is the first hop of the propagation path.
	Originator string
	// Path is the router-level propagation path, current holder last.
	Path []string
	// FromEBGP records whether the last hop was an eBGP session.
	FromEBGP bool

	// Memoized Key()/AttrsKey(); cleared by Clone. A route must be sealed
	// (Seal, or a first Key call by its creating goroutine) before it is
	// shared across goroutines; after that, Key and AttrsKey are pure
	// reads and safe to call concurrently.
	keyCache   string
	attrsCache string
}

// Clone returns a copy sharing the immutable BDD/automaton handles.
func (r *Route) Clone() *Route {
	out := *r
	out.Path = append([]string(nil), r.Path...)
	out.keyCache = ""
	out.attrsCache = ""
	return &out
}

// Seal memoizes the route's keys, making subsequent Key/AttrsKey calls
// read-only. Call it from the goroutine that created the route before
// publishing it to shared state (RIBs, memo tables); mutating a sealed
// route is a bug.
func (r *Route) Seal() {
	_ = r.Key()
}

// LearnedFrom returns the hop the route was received from, or "" for a
// locally originated route.
func (r *Route) LearnedFrom() string {
	if len(r.Path) < 2 {
		return ""
	}
	return r.Path[len(r.Path)-2]
}

// OnPath reports whether router appears on the propagation path.
func (r *Route) OnPath(router string) bool {
	for _, h := range r.Path {
		if h == router {
			return true
		}
	}
	return false
}

// SyncASLen recomputes ASLen from the automaton (no-op in Expresso- mode).
func (r *Route) SyncASLen() {
	if r.ASPath != nil {
		r.ASLen = r.ASPath.ShortestLength()
	}
}

// AttrsKey is a canonical string for everything except U, used to coalesce
// symbolic routes with identical attributes and to detect fixed points.
// The result is memoized (the fixed-point loop calls it once per candidate
// per round); callers must not mutate a route after its AttrsKey has been
// taken (use Clone).
func (r *Route) AttrsKey() string {
	if r.attrsCache == "" {
		asp := "-"
		if r.ASPath != nil {
			asp = r.ASPath.Signature()
		}
		r.attrsCache = fmt.Sprintf("%s|%d|%d|%d|%d|%d|%s|%s|%s|%v",
			asp, r.ASLen, r.Comm, r.LocalPref, r.MED, r.Origin,
			r.NextHop, r.Originator, strings.Join(r.Path, ">"), r.FromEBGP)
	}
	return r.attrsCache
}

// Key is AttrsKey plus U, identifying the route completely. The result is
// memoized; callers must not mutate a route after its Key has been taken
// (use Clone).
func (r *Route) Key() string {
	if r.keyCache == "" {
		r.keyCache = fmt.Sprintf("%d|%s", r.U, r.AttrsKey())
	}
	return r.keyCache
}

// Compare applies the BGP decision process to two symbolic routes'
// attributes (the paper's ρ): >0 if a is preferred, <0 if b is, 0 on a tie.
// Symbolic AS paths compare by shortest accepted length (§4.3, §8).
func Compare(a, b *Route) int {
	if a.LocalPref != b.LocalPref {
		if a.LocalPref > b.LocalPref {
			return 1
		}
		return -1
	}
	if a.ASLen != b.ASLen {
		if a.ASLen < b.ASLen {
			return 1
		}
		return -1
	}
	if a.Origin != b.Origin {
		if a.Origin < b.Origin {
			return 1
		}
		return -1
	}
	if a.MED != b.MED {
		if a.MED < b.MED {
			return 1
		}
		return -1
	}
	if a.FromEBGP != b.FromEBGP {
		if a.FromEBGP {
			return 1
		}
		return -1
	}
	// Deterministic tie-breaking, standing in for BGP's oldest-route /
	// lowest-router-id steps: shorter propagation path, then lexicographic
	// next hop and originator. This selects a single best route per
	// (prefix, environment) among otherwise equal candidates, which keeps
	// symbolic RIBs small (real BGP is equally deterministic without
	// multipath).
	if len(a.Path) != len(b.Path) {
		if len(a.Path) < len(b.Path) {
			return 1
		}
		return -1
	}
	if a.NextHop != b.NextHop {
		if a.NextHop < b.NextHop {
			return 1
		}
		return -1
	}
	if a.Originator != b.Originator {
		if a.Originator < b.Originator {
			return 1
		}
		return -1
	}
	return 0
}

// Merge implements the paper's ⊕ (Equation 5) generalized to a route list:
// each route keeps only the prefix-environment pairs not claimed by any
// strictly more preferred route. Routes with identical attributes are
// coalesced by unioning their U. Empty routes are dropped. The result is
// deterministic (sorted by attribute key); the inputs are not modified.
//
// Subtraction runs per tier, not per route: a tier is a maximal run of the
// preference-sorted candidates that differ at most in Originator (sameTier:
// one neighbor, one preference level). Every member keeps U \ blocked for
// the blocked its tier was entered with, and blocked advances once per
// tier, by the union of the survivors.
//
// That is exact under one invariant: two candidates of a tier are
// Compare-equal (a tie, both kept) or have disjoint U. EPVP's candidate
// lists have it by construction: untied members differ in Originator, which
// transfers copy through, so they are images of two Compare classes of ONE
// neighbor's merged RIB — disjoint there (across tiers by subtraction,
// within a tier by this invariant a round earlier) and still disjoint after
// transfers, which only conjoin guards; a neighbor contributing a single
// route has a single Originator. DESIGN.md "Merge" gives the argument in
// full, and epvp's TestMergeMatchesChainOracle asserts the invariant and
// equality with the old per-class chain on every recompute. Any other
// caller must supply lists with the same property.
//
// Both BDD steps — a member's U \ blocked and a tier's blocked ∨ survivors
// — go through m (see RunMemo); a one-shot caller passes a fresh memo.
// Every BDD operation runs on s's worker.
func (m *RunMemo) Merge(s *Space, routes []*Route) []*Route {
	// Coalesce by attributes first; a candidate is cloned only when a
	// second one with its AttrsKey arrives (on measured networks none does).
	at := make(map[string]int, len(routes))
	list := make([]*Route, 0, len(routes))
	var private []bool // list[i] is Merge's own clone, safe to widen
	for _, r := range routes {
		if r.U == bdd.False {
			continue
		}
		i, dup := at[r.AttrsKey()]
		if !dup {
			at[r.AttrsKey()] = len(list)
			list = append(list, r)
			continue
		}
		if private == nil {
			private = make([]bool, len(routes))
		}
		if !private[i] {
			list[i], private[i] = list[i].Clone(), true
		}
		list[i].U = s.W.Or(list[i].U, r.U)
	}
	sortByPreference(list)
	out := make([]*Route, 0, len(list))
	blocked := bdd.False // union of U over strictly better tiers
	var kept []bdd.Node  // the current tier's survivors
	for i := 0; i < len(list); {
		j := i + 1
		for j < len(list) && sameTier(list[i], list[j]) {
			j++
		}
		kept = kept[:0]
		for _, r := range list[i:j] {
			u := m.diff(s.W, r.U, blocked)
			if u == bdd.False {
				continue
			}
			nr := r.Clone()
			nr.U = u
			out = append(out, nr)
			kept = append(kept, u)
		}
		if len(kept) > 0 {
			blocked = m.union(s.W, blocked, kept)
		}
		i = j
	}
	sortRoutes(out)
	return out
}

// sameTier reports whether Compare can tell a and b apart by Originator
// only: they agree on every field it consults before that one.
func sameTier(a, b *Route) bool {
	return a.LocalPref == b.LocalPref && a.ASLen == b.ASLen && a.Origin == b.Origin && a.MED == b.MED &&
		a.FromEBGP == b.FromEBGP && len(a.Path) == len(b.Path) && a.NextHop == b.NextHop
}

// OrBalanced unions ns (non-empty) pairwise, so no operand is the running
// union of all the others.
func OrBalanced(w *bdd.Worker, ns []bdd.Node) bdd.Node {
	if len(ns) == 1 {
		return ns[0]
	}
	h := len(ns) / 2
	return w.Or(OrBalanced(w, ns[:h]), OrBalanced(w, ns[h:]))
}

// sortByPreference orders routes best-first (stable within ties).
func sortByPreference(rs []*Route) {
	sort.SliceStable(rs, func(i, j int) bool { return Compare(rs[i], rs[j]) > 0 })
}

func sortRoutes(rs []*Route) {
	keys := make([]string, len(rs))
	idx := make([]int, len(rs))
	for i, r := range rs {
		keys[i] = r.Key()
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	sorted := make([]*Route, len(rs))
	for i, j := range idx {
		sorted[i] = rs[j]
	}
	copy(rs, sorted)
}

// CanonicalKey is a run-independent ordering key for a route: AttrsKey
// with the community handle replaced by the node's structural fingerprint.
// Handle numbers depend on node-creation order, which the parallel engine
// does not control, so any ordering that leaks into a Report must go
// through this key rather than Key/AttrsKey. cs must be the community
// space r.Comm lives in.
func (r *Route) CanonicalKey(cs *community.Space) string {
	asp := "-"
	if r.ASPath != nil {
		asp = r.ASPath.Signature()
	}
	hi, lo := cs.M.Fingerprint(r.Comm)
	return fmt.Sprintf("%s|%d|%016x%016x|%d|%d|%d|%s|%s|%s|%v",
		asp, r.ASLen, hi, lo, r.LocalPref, r.MED, r.Origin,
		r.NextHop, r.Originator, strings.Join(r.Path, ">"), r.FromEBGP)
}

// SortCanonical stably sorts routes by CanonicalKey. It is applied when
// RIBs are assembled into a Result so that reports are byte-identical
// across worker counts and schedules; routes with equal keys (same
// attributes, different U) keep their deterministic input order.
func SortCanonical(cs *community.Space, rs []*Route) {
	keys := make([]string, len(rs))
	for i, r := range rs {
		keys[i] = r.CanonicalKey(cs)
	}
	idx := make([]int, len(rs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	sorted := make([]*Route, len(rs))
	for i, j := range idx {
		sorted[i] = rs[j]
	}
	copy(rs, sorted)
}

// RIBKey canonically identifies a route list, for fixed-point detection.
func RIBKey(rs []*Route) string {
	var sb strings.Builder
	for _, r := range rs {
		sb.WriteString(r.Key())
		sb.WriteByte(';')
	}
	return sb.String()
}

// Unfold materializes the concrete routes of r for a specific prefix and
// environment assignment; used by differential tests. comm must be the
// community space the route's Comm node lives in. It returns the concrete
// attributes if (prefix, env) ∈ U, with one representative AS path.
func (r *Route) Unfold(s *Space, comm *community.Space, p route.Prefix, envAssign map[int]bool) (route.Route, bool) {
	assign := map[int]bool{}
	for b := 0; b < AddrBits; b++ {
		assign[b] = p.Addr&(1<<(31-b)) != 0
	}
	for b := 0; b < LenBits; b++ {
		assign[AddrBits+b] = p.Len&(1<<(LenBits-1-b)) != 0
	}
	for v, val := range envAssign {
		assign[v] = val
	}
	if !s.M.Eval(r.U, assign) {
		return route.Route{}, false
	}
	out := route.Route{
		Prefix:      p,
		LocalPref:   r.LocalPref,
		MED:         r.MED,
		Origin:      r.Origin,
		NextHop:     r.NextHop,
		Originator:  r.Originator,
		Path:        append([]string(nil), r.Path...),
		FromEBGP:    r.FromEBGP,
		Communities: route.CommunitySet{},
	}
	if r.ASPath != nil {
		if w, ok := r.ASPath.ShortestWord(); ok {
			out.ASPath = make([]uint32, len(w))
			for i, sym := range w {
				out.ASPath[i] = uint32(sym)
			}
		}
	}
	return out, true
}

package symbolic

import (
	"github.com/expresso-verify/expresso/internal/automaton"
	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/community"
	"github.com/expresso-verify/expresso/internal/config"
)

// Guard is a predicate over symbolic routes, a product of per-field
// predicates: prefix (BDD over address+length variables), community (BDD
// over atom variables), and AS path (a regular language; nil = any).
type Guard struct {
	Prefix bdd.Node
	Comm   bdd.Node
	ASPath *automaton.Automaton
}

// TransferPair is one (α, f) pair of the paper's Equation 3: routes
// satisfying the guard are transformed by the actions (or dropped when
// Permit is false).
type TransferPair struct {
	Guard   Guard
	Permit  bool
	Actions []config.Action
}

// Transfer is a compiled route policy: a complete, non-overlapping list of
// guarded actions (Algorithm 2). Every concrete route satisfies exactly one
// pair's guard.
type Transfer struct {
	Pairs []TransferPair
}

// Nodes returns the prefix-space BDD handles the transfer holds (one guard
// prefix per pair), for rooting compiled transfers across dead-node
// reclamations. Community guards live in the community space's separate
// manager, which is never reclaimed.
func (t *Transfer) Nodes() []bdd.Node {
	out := make([]bdd.Node, 0, len(t.Pairs))
	for _, p := range t.Pairs {
		out = append(out, p.Guard.Prefix)
	}
	return out
}

// CompileContext carries the spaces a compilation targets.
type CompileContext struct {
	Space *Space
	Comm  *community.Space
	// SymbolicCommunities disables community guards when false (the "t"
	// feature level of Figure 6c): policies then treat community matches as
	// never matching, mirroring a verifier that ignores communities.
	SymbolicCommunities bool
	// SymbolicASPaths disables AS-path guards when false ("Expresso-").
	SymbolicASPaths bool
}

// CompilePolicy compiles p (nil = permit all) into a Transfer using
// Algorithm 2: iterate the nodes, maintaining the set of still-unmatched
// routes as a list of disjoint guard products; the final remainder is
// denied (the default deny of line 13).
func CompilePolicy(ctx CompileContext, p *config.Policy) *Transfer {
	t := &Transfer{}
	anyGuard := Guard{Prefix: bdd.True, Comm: bdd.True, ASPath: nil}
	if p == nil {
		t.Pairs = append(t.Pairs, TransferPair{Guard: anyGuard, Permit: true})
		return t
	}
	unmatched := []Guard{anyGuard}
	for _, node := range p.Nodes {
		match := ctx.nodeGuard(node)
		var nextUnmatched []Guard
		for _, u := range unmatched {
			hit, misses := ctx.split(u, match)
			if !ctx.emptyGuard(hit) {
				t.Pairs = append(t.Pairs, TransferPair{
					Guard:   hit,
					Permit:  node.Permit,
					Actions: node.Actions,
				})
			}
			for _, m := range misses {
				if !ctx.emptyGuard(m) {
					nextUnmatched = append(nextUnmatched, m)
				}
			}
		}
		unmatched = nextUnmatched
		if len(unmatched) == 0 {
			break
		}
	}
	// Deny unmatched routes by default.
	for _, u := range unmatched {
		t.Pairs = append(t.Pairs, TransferPair{Guard: u, Permit: false})
	}
	return t
}

// nodeGuard builds the product guard of a policy node's match conditions.
func (ctx CompileContext) nodeGuard(n *config.PolicyNode) Guard {
	g := Guard{Prefix: bdd.True, Comm: bdd.True}
	if len(n.MatchPrefixes) > 0 {
		g.Prefix = ctx.Space.PrefixMatchBDD(n.MatchPrefixes...)
	}
	if len(n.MatchCommunities) > 0 {
		if ctx.SymbolicCommunities {
			var atoms []int
			for _, e := range n.MatchCommunities {
				atoms = append(atoms, ctx.Comm.Atoms.ExprAtoms(e)...)
			}
			g.Comm = ctx.Comm.MatchAny(atoms)
		} else {
			// Communities disabled: the condition can never be satisfied.
			g.Comm = bdd.False
		}
	}
	if n.MatchASPath != "" && ctx.SymbolicASPaths {
		g.ASPath = n.ASPathAutomaton()
	}
	return g
}

// split intersects guard u with match m, returning the hit product and the
// disjoint miss products: ¬(P∧C∧A) expanded as (¬P) ∨ (P∧¬C) ∨ (P∧C∧¬A).
func (ctx CompileContext) split(u, m Guard) (hit Guard, misses []Guard) {
	pw := ctx.Space.W
	hit = Guard{
		Prefix: pw.And(u.Prefix, m.Prefix),
		Comm:   ctx.Comm.W.And(u.Comm, m.Comm),
		ASPath: intersectASPath(u.ASPath, m.ASPath),
	}
	// Miss on prefix.
	misses = append(misses, Guard{
		Prefix: pw.Diff(u.Prefix, m.Prefix),
		Comm:   u.Comm,
		ASPath: u.ASPath,
	})
	// Hit prefix, miss community.
	misses = append(misses, Guard{
		Prefix: hit.Prefix,
		Comm:   ctx.Comm.W.Diff(u.Comm, m.Comm),
		ASPath: u.ASPath,
	})
	// Hit prefix and community, miss AS path.
	if m.ASPath != nil {
		misses = append(misses, Guard{
			Prefix: hit.Prefix,
			Comm:   hit.Comm,
			ASPath: minusASPath(u.ASPath, m.ASPath),
		})
	}
	return hit, misses
}

func intersectASPath(a, b *automaton.Automaton) *automaton.Automaton {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	default:
		return a.Intersect(b)
	}
}

func minusASPath(a, b *automaton.Automaton) *automaton.Automaton {
	if a == nil {
		return b.Complement()
	}
	return a.Minus(b)
}

func (ctx CompileContext) emptyGuard(g Guard) bool {
	if g.Prefix == bdd.False || g.Comm == bdd.False {
		return true
	}
	return g.ASPath != nil && g.ASPath.IsEmpty()
}

// Apply runs the compiled transfer on a symbolic route, producing the
// permitted output routes (Equation 4). The route is constrained by each
// guard; non-empty permitted constraints have the pair's actions applied.
func (t *Transfer) Apply(ctx CompileContext, r *Route) []*Route {
	var out []*Route
	for _, pair := range t.Pairs {
		c := constrain(ctx, r, pair.Guard)
		if c == nil {
			continue
		}
		if !pair.Permit {
			continue
		}
		for _, a := range pair.Actions {
			applyAction(ctx, c, a)
		}
		c.SyncASLen()
		out = append(out, c)
	}
	return out
}

// constrain returns r restricted to guard g, or nil if the restriction is
// empty. The advertiser variables of r.U are untouched (guards only
// constrain address and length bits).
func constrain(ctx CompileContext, r *Route, g Guard) *Route {
	u := ctx.Space.W.And(r.U, g.Prefix)
	if u == bdd.False {
		return nil
	}
	comm := ctx.Comm.W.And(r.Comm, g.Comm)
	if comm == bdd.False {
		return nil
	}
	asp := r.ASPath
	if g.ASPath != nil {
		if asp == nil {
			// Concrete-AS-path mode: guards on AS paths are ignored
			// (Expresso- under-approximates AS-path policies; §7.2).
			asp = nil
		} else {
			asp = asp.Intersect(g.ASPath)
			if asp.IsEmpty() {
				return nil
			}
		}
	}
	out := r.Clone()
	out.U = u
	out.Comm = comm
	out.ASPath = asp
	return out
}

func applyAction(ctx CompileContext, r *Route, a config.Action) {
	switch a.Kind {
	case config.ActSetLocalPref:
		r.LocalPref = a.Value
	case config.ActSetMED:
		r.MED = a.Value
	case config.ActAddCommunity:
		atom := ctx.Comm.Atoms.AtomOf(a.Community)
		r.Comm = ctx.Comm.Add(r.Comm, atom)
	case config.ActDeleteCommunity:
		atoms := ctx.Comm.Atoms.ExprAtoms(a.CommunityExpr)
		r.Comm = ctx.Comm.Delete(r.Comm, atoms)
	case config.ActPrependASPath:
		if r.ASPath != nil {
			r.ASPath = automaton.FromWord([]automaton.Symbol{automaton.Symbol(a.Value)}).Concat(r.ASPath)
		}
		r.ASLen++
	}
}

// Prepend prepends one AS number to the route's symbolic AS path (used for
// eBGP export).
func Prepend(r *Route, as uint32) {
	if r.ASPath != nil {
		r.ASPath = automaton.FromWord([]automaton.Symbol{automaton.Symbol(as)}).Concat(r.ASPath)
	}
	r.ASLen++
}

// RemoveASLoops subtracts from the route's AS-path language every path
// containing the given AS (eBGP import loop rejection). It returns false if
// the language becomes empty. In concrete mode it is a no-op returning
// true (external paths are opaque).
func RemoveASLoops(r *Route, as uint32) bool {
	if r.ASPath == nil {
		return true
	}
	containing := automaton.AnyString().
		Concat(automaton.FromWord([]automaton.Symbol{automaton.Symbol(as)})).
		Concat(automaton.AnyString())
	r.ASPath = r.ASPath.Minus(containing)
	if r.ASPath.IsEmpty() {
		return false
	}
	r.SyncASLen()
	return true
}

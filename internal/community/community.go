// Package community implements atomic predicates over BGP communities and
// the symbolic community-list encoding Expresso uses (§4.2 of the paper).
//
// A community atom is an equivalence class of communities: two communities
// are in the same atom iff exactly the same set of configuration
// expressions matches them. Because every expression in our configuration
// language denotes an explicit finite set, atoms are computed by grouping
// mentioned communities by their expression-membership signature; all
// unmentioned communities form one catch-all atom.
//
// A symbolic community list is a set of concrete community lists. Space
// abstracts a concrete list to the set of atoms it intersects (exact for
// policy matching, since policies only test intersection with expressions,
// which are unions of atoms) and encodes the set as a BDD over one boolean
// variable per atom ("the list contains a community in atom i"). Figure
// 7a's comparison encoding, an automaton over community lists, lives in
// internal/altenc.
package community

import (
	"fmt"
	"sort"
	"strings"

	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/route"
)

// Atoms is the computed atomic-predicate universe.
type Atoms struct {
	// Count is the number of atoms, including the catch-all.
	Count int
	// CatchAll is the index of the atom of unmentioned communities.
	CatchAll int
	// byCommunity maps every mentioned community to its atom.
	byCommunity map[route.Community]int
	// members lists the mentioned communities of each atom (nil for the
	// catch-all).
	members [][]route.Community
}

// ComputeAtoms builds the atom universe from every community expression
// appearing in the devices' policies (matches, adds, and deletes).
func ComputeAtoms(devices []*config.Device) *Atoms {
	var exprs []config.CommunityExpr
	for _, d := range devices {
		for _, pol := range d.Policies {
			for _, n := range pol.Nodes {
				exprs = append(exprs, n.MatchCommunities...)
				for _, a := range n.Actions {
					switch a.Kind {
					case config.ActAddCommunity:
						exprs = append(exprs, config.CommunityExpr{
							Pattern: a.Community.String(),
							Values:  []route.Community{a.Community},
						})
					case config.ActDeleteCommunity:
						exprs = append(exprs, a.CommunityExpr)
					}
				}
			}
		}
	}
	return computeAtoms(exprs)
}

func computeAtoms(exprs []config.CommunityExpr) *Atoms {
	// Signature of a mentioned community: the sorted set of expression
	// indices containing it.
	mentioned := map[route.Community][]int{}
	for i, e := range exprs {
		for _, c := range e.Values {
			mentioned[c] = append(mentioned[c], i)
		}
	}
	sigIndex := map[string]int{}
	a := &Atoms{byCommunity: map[route.Community]int{}}
	// Deterministic iteration: sort communities.
	comms := make([]route.Community, 0, len(mentioned))
	for c := range mentioned {
		comms = append(comms, c)
	}
	sort.Slice(comms, func(i, j int) bool { return comms[i] < comms[j] })
	for _, c := range comms {
		idxs := mentioned[c]
		sort.Ints(idxs)
		var sb strings.Builder
		prev := -1
		for _, i := range idxs {
			if i != prev {
				fmt.Fprintf(&sb, "%d,", i)
				prev = i
			}
		}
		sig := sb.String()
		atom, ok := sigIndex[sig]
		if !ok {
			atom = len(sigIndex)
			sigIndex[sig] = atom
			a.members = append(a.members, nil)
		}
		a.byCommunity[c] = atom
		a.members[atom] = append(a.members[atom], c)
	}
	a.CatchAll = len(sigIndex)
	a.members = append(a.members, nil)
	a.Count = a.CatchAll + 1
	return a
}

// AtomOf returns the atom index of community c.
func (a *Atoms) AtomOf(c route.Community) int {
	if atom, ok := a.byCommunity[c]; ok {
		return atom
	}
	return a.CatchAll
}

// Members returns the mentioned communities of atom i (nil for catch-all).
func (a *Atoms) Members(i int) []route.Community { return a.members[i] }

// Signature canonically renders the atom universe: the member communities
// of every atom index in order. Two Atoms with equal signatures assign
// every community the same atom index, so BDD nodes built over one
// universe remain meaningful under the other — the compatibility check
// behind EPVP warm-starts that reuse a prior engine's community space.
func (a *Atoms) Signature() string {
	var sb strings.Builder
	for i, ms := range a.members {
		fmt.Fprintf(&sb, "%d:", i)
		for _, c := range ms {
			fmt.Fprintf(&sb, "%d,", c)
		}
		sb.WriteByte(';')
	}
	fmt.Fprintf(&sb, "catchall=%d", a.CatchAll)
	return sb.String()
}

// ExprAtoms returns the sorted atom indices whose communities the
// expression matches. Expressions are exact unions of atoms provided they
// participated in ComputeAtoms; this is validated and a violation panics
// (it would indicate an atomization bug).
func (a *Atoms) ExprAtoms(e config.CommunityExpr) []int {
	set := map[int]bool{}
	for _, c := range e.Values {
		set[a.AtomOf(c)] = true
	}
	out := make([]int, 0, len(set))
	for i := range set {
		// Validate: every member community of the atom must match e.
		for _, m := range a.members[i] {
			if !e.Matches(m) {
				panic(fmt.Sprintf("community: expression %q splits atom %d", e.Pattern, i))
			}
		}
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// ListAtoms abstracts a concrete community list to its atom-presence set.
func (a *Atoms) ListAtoms(s route.CommunitySet) []int {
	set := map[int]bool{}
	for c := range s {
		set[a.AtomOf(c)] = true
	}
	out := make([]int, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// Space is the BDD encoding of symbolic community lists: variable i of M is
// "the list contains a community in atom i". W is the operation view
// holding the op cache, M's default worker; a Space must be used by one
// goroutine at a time, and parallel phases take views over M's kept
// workers from Workers.
type Space struct {
	Atoms *Atoms
	M     *bdd.Manager
	W     *bdd.Worker
}

// NewSpace creates the BDD space for the atom universe.
func NewSpace(atoms *Atoms) *Space {
	m := bdd.New(atoms.Count)
	return &Space{Atoms: atoms, M: m, W: m.DefaultWorker()}
}

// Workers returns n views of the space over M's first n kept workers
// (bdd.Manager.Workers), view 0 over the default worker. Views share the
// node universe, so handles remain interchangeable.
func (s *Space) Workers(n int) []*Space {
	ws := s.M.Workers(n)
	out := make([]*Space, len(ws))
	for i, w := range ws {
		c := *s
		c.W = w
		out[i] = &c
	}
	return out
}

// All returns the symbolic list containing every concrete community list
// (the paper's 2^CA).
func (s *Space) All() bdd.Node { return bdd.True }

// EmptyList returns the symbolic list containing only the empty community
// list (the paper's {∅}).
func (s *Space) EmptyList() bdd.Node {
	vars := make([]int, s.Atoms.Count)
	values := make([]bool, s.Atoms.Count)
	for i := range vars {
		vars[i] = i
	}
	return s.M.Cube(vars, values)
}

// FromConcrete encodes one concrete community list.
func (s *Space) FromConcrete(set route.CommunitySet) bdd.Node {
	present := map[int]bool{}
	for _, i := range s.Atoms.ListAtoms(set) {
		present[i] = true
	}
	vars := make([]int, s.Atoms.Count)
	values := make([]bool, s.Atoms.Count)
	for i := range vars {
		vars[i] = i
		values[i] = present[i]
	}
	return s.M.Cube(vars, values)
}

// Add returns the symbolic list after "add community" of a community in
// atom: every member list now contains the atom.
func (s *Space) Add(list bdd.Node, atom int) bdd.Node {
	return s.W.And(s.W.Exists(list, atom), s.M.Var(atom))
}

// Delete returns the symbolic list after "delete community" of the given
// atoms: every member list loses them.
func (s *Space) Delete(list bdd.Node, atoms []int) bdd.Node {
	out := s.W.Exists(list, atoms...)
	for _, a := range atoms {
		out = s.W.And(out, s.M.NVar(a))
	}
	return out
}

// MatchAny returns the predicate "the list contains a community in at least
// one of the given atoms" (if-match community).
func (s *Space) MatchAny(atoms []int) bdd.Node {
	terms := make([]bdd.Node, len(atoms))
	for i, a := range atoms {
		terms[i] = s.M.Var(a)
	}
	return s.W.Or(terms...)
}

// Contains reports whether the symbolic list includes the given concrete
// list.
func (s *Space) Contains(list bdd.Node, set route.CommunitySet) bool {
	assign := map[int]bool{}
	for _, i := range s.Atoms.ListAtoms(set) {
		assign[i] = true
	}
	return s.M.Eval(list, assign)
}

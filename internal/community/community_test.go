package community

import (
	"testing"
	"testing/quick"

	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/testnet"
)

func exprOf(t *testing.T, s string) config.CommunityExpr {
	t.Helper()
	e, err := config.ParseCommunityExpr(s)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestComputeAtomsPaperExample(t *testing.T) {
	// The paper's §4.2 example: communities 300:100 and 300:[1-9]00 yield
	// three atoms: c1 = 300:100, c2 = 300:[2-9]00, c3 = everything else.
	exprs := []config.CommunityExpr{}
	e1 := exprOf(t, "300:100")
	e2 := exprOf(t, "300:[1-9]00")
	exprs = append(exprs, e1, e2)
	a := computeAtoms(exprs)
	if a.Count != 3 {
		t.Fatalf("atom count = %d, want 3", a.Count)
	}
	c100 := route.MustParseCommunity("300:100")
	c200 := route.MustParseCommunity("300:200")
	c900 := route.MustParseCommunity("300:900")
	other := route.MustParseCommunity("999:999")
	if a.AtomOf(c100) == a.AtomOf(c200) {
		t.Error("300:100 and 300:200 must be in different atoms")
	}
	if a.AtomOf(c200) != a.AtomOf(c900) {
		t.Error("300:200 and 300:900 must share an atom")
	}
	if a.AtomOf(other) != a.CatchAll {
		t.Error("unmentioned community must be in the catch-all atom")
	}
	// Expression atoms: e1 -> {atom(c100)}, e2 -> {atom(c100), atom(c200)}.
	if got := a.ExprAtoms(e1); len(got) != 1 || got[0] != a.AtomOf(c100) {
		t.Errorf("ExprAtoms(300:100) = %v", got)
	}
	if got := a.ExprAtoms(e2); len(got) != 2 {
		t.Errorf("ExprAtoms(300:[1-9]00) = %v, want 2 atoms", got)
	}
}

func TestComputeAtomsFromDevices(t *testing.T) {
	devices, err := config.ParseConfigs(testnet.Figure4)
	if err != nil {
		t.Fatal(err)
	}
	a := ComputeAtoms(devices)
	// Figure 4 mentions only 300:100: atoms = {300:100} + catch-all.
	if a.Count != 2 {
		t.Fatalf("atom count = %d, want 2", a.Count)
	}
	if a.AtomOf(route.MustParseCommunity("300:100")) == a.CatchAll {
		t.Error("300:100 must not be the catch-all")
	}
	if got := a.Members(a.AtomOf(route.MustParseCommunity("300:100"))); len(got) != 1 {
		t.Errorf("members = %v", got)
	}
}

func TestListAtoms(t *testing.T) {
	a := computeAtoms([]config.CommunityExpr{exprOf(t, "1:1"), exprOf(t, "2:2")})
	set := route.NewCommunitySet(route.MustParseCommunity("1:1"), route.MustParseCommunity("9:9"))
	got := a.ListAtoms(set)
	if len(got) != 2 {
		t.Fatalf("ListAtoms = %v", got)
	}
	// Must include atom(1:1) and the catch-all (for 9:9).
	found := map[int]bool{}
	for _, i := range got {
		found[i] = true
	}
	if !found[a.AtomOf(route.MustParseCommunity("1:1"))] || !found[a.CatchAll] {
		t.Errorf("ListAtoms = %v", got)
	}
}

func TestSpaceBasics(t *testing.T) {
	a := computeAtoms([]config.CommunityExpr{exprOf(t, "300:100"), exprOf(t, "300:[1-9]00")})
	s := NewSpace(a)
	c1 := a.AtomOf(route.MustParseCommunity("300:100"))

	// The paper's example: adding 300:100 to 2^CA yields exactly the lists
	// containing c1.
	all := s.All()
	added := s.Add(all, c1)
	if added != s.M.Var(c1) {
		t.Error("Add(All, c1) should be the predicate 'contains c1'")
	}
	// Empty list contains no atoms.
	empty := s.EmptyList()
	if s.Contains(empty, route.NewCommunitySet(route.MustParseCommunity("300:100"))) {
		t.Error("EmptyList should not contain a list with 300:100")
	}
	if !s.Contains(empty, route.CommunitySet{}) {
		t.Error("EmptyList should contain the empty list")
	}
	// Add to empty list then match.
	l := s.Add(empty, c1)
	if !s.Contains(l, route.NewCommunitySet(route.MustParseCommunity("300:100"))) {
		t.Error("after Add, list {300:100} should be a member")
	}
	match := s.MatchAny([]int{c1})
	if s.M.And(l, match) != l {
		t.Error("added list should satisfy MatchAny")
	}
	// Delete removes the atom again.
	d := s.Delete(l, []int{c1})
	if d != empty {
		t.Error("Delete should restore the empty list")
	}
}

func TestSpaceFromConcrete(t *testing.T) {
	a := computeAtoms([]config.CommunityExpr{exprOf(t, "1:1")})
	s := NewSpace(a)
	set := route.NewCommunitySet(route.MustParseCommunity("1:1"))
	n := s.FromConcrete(set)
	if !s.Contains(n, set) {
		t.Error("FromConcrete must contain its list")
	}
	if s.Contains(n, route.CommunitySet{}) {
		t.Error("FromConcrete must not contain other lists")
	}
}

// TestSpaceMirrorsConcreteLists: a random sequence of add, delete and
// match operations applied to 2^CA yields the BDD whose models are
// exactly the concrete lists (atom masks) the same sequence produces when
// applied to each list one at a time.
func TestSpaceMirrorsConcreteLists(t *testing.T) {
	a := computeAtoms([]config.CommunityExpr{exprOf(t, "1:1"), exprOf(t, "2:2"), exprOf(t, "3:3")})
	s := NewSpace(a)
	k := a.Count
	check := func(kinds, atoms []uint8) bool {
		n := s.All()
		lists := map[uint64]bool{}
		for mask := uint64(0); mask < 1<<k; mask++ {
			lists[mask] = true
		}
		for i := 0; i < len(kinds) && i < len(atoms) && i < 8; i++ {
			atom := int(atoms[i]) % k
			bit := uint64(1) << atom
			next := map[uint64]bool{}
			for m := range lists {
				switch kinds[i] % 3 {
				case 0:
					next[m|bit] = true
				case 1:
					next[m&^bit] = true
				case 2:
					if m&bit != 0 {
						next[m] = true
					}
				}
			}
			lists = next
			switch kinds[i] % 3 {
			case 0:
				n = s.Add(n, atom)
			case 1:
				n = s.Delete(n, []int{atom})
			case 2:
				n = s.M.And(n, s.MatchAny([]int{atom}))
			}
		}
		for mask := uint64(0); mask < 1<<k; mask++ {
			assign := map[int]bool{}
			for i := 0; i < k; i++ {
				assign[i] = mask&(1<<i) != 0
			}
			if s.M.Eval(n, assign) != lists[mask] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAtomsDeterministic(t *testing.T) {
	exprs := []config.CommunityExpr{exprOf(t, "300:[1-9]00"), exprOf(t, "300:100"), exprOf(t, "7:7")}
	a1 := computeAtoms(exprs)
	a2 := computeAtoms(exprs)
	if a1.Count != a2.Count || a1.CatchAll != a2.CatchAll {
		t.Fatal("atom computation must be deterministic")
	}
	for c := range a1.byCommunity {
		if a1.AtomOf(c) != a2.AtomOf(c) {
			t.Fatalf("atom of %s differs between runs", c)
		}
	}
}

package symbolic

import (
	"testing"

	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/route"
)

// tierFixture hands the tier-boundary tests four disjoint /8s and a route
// builder whose defaults put every route in one tier.
type tierFixture struct {
	s          *Space
	a, b, c, d bdd.Node
}

func newTierFixture() tierFixture {
	s := NewSpace(1)
	p := func(text string) bdd.Node { return s.PrefixBDD(route.MustParsePrefix(text)) }
	return tierFixture{s: s, a: p("10.0.0.0/8"), b: p("20.0.0.0/8"), c: p("30.0.0.0/8"), d: p("40.0.0.0/8")}
}

func (f tierFixture) route(u bdd.Node, edit func(*Route)) *Route {
	r := &Route{U: u, Comm: bdd.True, LocalPref: 100, NextHop: "n1", Originator: "o1", Path: []string{"o1", "n1", "me"}}
	if edit != nil {
		edit(r)
	}
	return r
}

// survivors maps each merged route back to the input it came from (by
// AttrsKey) and returns the U it kept, bdd.False for a dropped input.
func survivors(merged []*Route, in ...*Route) []bdd.Node {
	out := make([]bdd.Node, len(in))
	for i, r := range in {
		for _, m := range merged {
			if m.AttrsKey() == r.AttrsKey() {
				out[i] = m.U
			}
		}
	}
	return out
}

func TestMergeTieInsideTierKeepsBoth(t *testing.T) {
	f := newTierFixture()
	w := f.s.W
	// Same tier, same Originator, different community lists: a Compare tie
	// that AttrsKey keeps apart. Both keep their whole (overlapping) U and
	// together they block the worse tier.
	tie1 := f.route(w.Or(f.a, f.b), nil)
	tie2 := f.route(w.Or(f.b, f.c), func(r *Route) { r.Comm = f.s.M.Var(0) }) // any handle but tie1's
	worse := f.route(w.Or(f.a, f.b, f.c, f.d), func(r *Route) { r.LocalPref = 50 })
	got := survivors(new(RunMemo).Merge(f.s, []*Route{worse, tie2, tie1}), tie1, tie2, worse)
	want := []bdd.Node{tie1.U, tie2.U, f.d}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("route %d: kept %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMergeDisjointOriginatorsShareATier(t *testing.T) {
	f := newTierFixture()
	w := f.s.W
	// The invariant case: one neighbor, one preference level, two
	// Originators with disjoint U. Neither is subtracted from the other;
	// both block the next tier.
	o1 := f.route(f.a, nil)
	o2 := f.route(f.b, func(r *Route) { r.Originator = "o2"; r.Path[0] = "o2" })
	if !sameTier(o1, o2) || Compare(o1, o2) == 0 {
		t.Fatal("fixture: o1 and o2 must be distinct classes of one tier")
	}
	worse := f.route(w.Or(f.a, f.b, f.c), func(r *Route) { r.NextHop = "n2" })
	got := survivors(new(RunMemo).Merge(f.s, []*Route{worse, o2, o1}), o1, o2, worse)
	want := []bdd.Node{f.a, f.b, f.c}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("route %d: kept %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMergeDominatedTierLeavesBlockedAlone(t *testing.T) {
	f := newTierFixture()
	w := f.s.W
	best := f.route(w.Or(f.a, f.b), func(r *Route) { r.LocalPref = 200 })
	// Wholly inside best: the tier contributes no survivor, so the third
	// tier is cut by best alone.
	dominated := f.route(f.a, func(r *Route) { r.NextHop = "n2" })
	last := f.route(w.Or(f.a, f.c), func(r *Route) { r.NextHop = "n3" })
	merged := new(RunMemo).Merge(f.s, []*Route{last, dominated, best})
	if len(merged) != 2 {
		t.Fatalf("merged size = %d, want 2 (the dominated route is dropped)", len(merged))
	}
	got := survivors(merged, best, dominated, last)
	want := []bdd.Node{best.U, bdd.False, f.c}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("route %d: kept %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMergeCoalescesBeforeTiering(t *testing.T) {
	f := newTierFixture()
	w := f.s.W
	best := f.route(f.a, func(r *Route) { r.LocalPref = 200 })
	// Two halves of one route (identical attributes) arrive apart, one on
	// each side of a third candidate: they must come out as ONE route,
	// unioned and then cut, not as two tier members.
	half1 := f.route(w.Or(f.a, f.b), func(r *Route) { r.NextHop = "n2" })
	half2 := f.route(f.c, func(r *Route) { r.NextHop = "n2" })
	half1.Seal()
	before := half1.U
	merged := new(RunMemo).Merge(f.s, []*Route{half1, best, half2})
	if len(merged) != 2 {
		t.Fatalf("merged size = %d, want 2", len(merged))
	}
	if got := survivors(merged, half1)[0]; got != w.Or(f.b, f.c) {
		t.Errorf("coalesced route kept %v, want b ∪ c", got)
	}
	// Coalescing widens a private clone, never the caller's (sealed,
	// possibly shared) route.
	if half1.U != before {
		t.Error("Merge modified an input route")
	}
	for _, m := range merged {
		if m == half1 || m == half2 || m == best {
			t.Error("Merge returned an input route instead of a copy")
		}
	}
}

func TestMergePathLengthAndNextHopSplitTiers(t *testing.T) {
	f := newTierFixture()
	w := f.s.W
	for name, worsen := range map[string]func(*Route){
		"len(Path)": func(r *Route) { r.Path = append([]string{"o0"}, r.Path...) },
		"NextHop":   func(r *Route) { r.NextHop = "n2" },
	} {
		better := f.route(w.Or(f.a, f.b), nil)
		worse := f.route(w.Or(f.b, f.c), worsen)
		if sameTier(better, worse) {
			t.Errorf("%s: must split a tier", name)
		}
		got := survivors(new(RunMemo).Merge(f.s, []*Route{worse, better}), better, worse)
		if got[0] != better.U || got[1] != f.c {
			t.Errorf("%s: kept %v / %v, want the better route whole and the worse one cut to c", name, got[0], got[1])
		}
	}
}

// TestSameTierTracksCompare pins sameTier to Compare: two routes share a
// tier exactly when Compare cannot tell them apart once their Originators
// are made equal, whichever single field differs.
func TestSameTierTracksCompare(t *testing.T) {
	f := newTierFixture()
	edits := map[string]func(*Route){
		"none":       func(*Route) {},
		"LocalPref":  func(r *Route) { r.LocalPref++ },
		"ASLen":      func(r *Route) { r.ASLen++ },
		"Origin":     func(r *Route) { r.Origin++ },
		"MED":        func(r *Route) { r.MED++ },
		"FromEBGP":   func(r *Route) { r.FromEBGP = true },
		"len(Path)":  func(r *Route) { r.Path = append(r.Path, "x") },
		"NextHop":    func(r *Route) { r.NextHop = "n9" },
		"Originator": func(r *Route) { r.Originator = "o9" },
		"Comm":       func(r *Route) { r.Comm = bdd.False },
	}
	for name, edit := range edits {
		a, b := f.route(f.a, nil), f.route(f.a, edit)
		levelled := b.Clone()
		levelled.Originator = a.Originator
		if got, want := sameTier(a, b), Compare(a, levelled) == 0; got != want {
			t.Errorf("%s differs: sameTier = %v, Compare modulo Originator says %v", name, got, want)
		}
	}
}

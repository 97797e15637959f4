package symbolic

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/expresso-verify/expresso/internal/automaton"
	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/community"
	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/testnet"
)

func newCtx(t *testing.T, cfgText string) (CompileContext, []*config.Device) {
	t.Helper()
	devices, err := config.ParseConfigs(cfgText)
	if err != nil {
		t.Fatal(err)
	}
	atoms := community.ComputeAtoms(devices)
	return CompileContext{
		Space:               NewSpace(4),
		Comm:                community.NewSpace(atoms),
		SymbolicCommunities: true,
		SymbolicASPaths:     true,
	}, devices
}

func TestSpaceVariables(t *testing.T) {
	s := NewSpace(3)
	if s.M.NumVars() != FirstNbrVar+3 {
		t.Errorf("NumVars = %d", s.M.NumVars())
	}
	if s.NbrVar(0) != FirstNbrVar || s.NbrVar(2) != FirstNbrVar+2 {
		t.Error("NbrVar layout wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("NbrVar out of range should panic")
		}
	}()
	s.NbrVar(3)
}

// TestDataBlockLayout: the data-plane block starts after the control-plane
// variables, numbers n_i^l as DataBase + l·n + i, renames only advertiser
// variables, and its order reads back from the manager's variable order.
func TestDataBlockLayout(t *testing.T) {
	s := NewSpace(3)
	ranked := []int{24, 31}
	for _, l := range LongestFirst() {
		if l != 24 && l != 31 {
			ranked = append(ranked, l)
		}
	}
	base, order := s.DataBlock(func() []int { return ranked })
	if base != FirstNbrVar+3 || base != s.DataBase() || s.M.NumVars() != base+33*3 {
		t.Fatalf("block at %d (DataBase %d), %d variables", base, s.DataBase(), s.M.NumVars())
	}
	if v := s.DataVar(2, 5); v != base+5*3+2 || s.DataNeighbor(v) != 2 {
		t.Errorf("DataVar(2, 5) = %d, neighbor %d", v, s.DataNeighbor(v))
	}
	if dv, ok := s.PerLength(s.NbrVar(1), 7); !ok || dv != s.DataVar(1, 7) {
		t.Errorf("PerLength(n_1, 7) = %d, %v", dv, ok)
	}
	for _, v := range []int{0, AddrBits, s.DataVar(0, 0)} {
		if _, ok := s.PerLength(v, 7); ok {
			t.Errorf("PerLength renamed variable %d, no advertiser variable", v)
		}
	}
	if got := s.BlockLengths(s.M.Order()); !slices.Equal(got, order) || !slices.Equal(got, ranked) {
		t.Errorf("BlockLengths = %v, want the installed %v", got, ranked)
	}
	if got := NewSpace(3).BlockLengths(NewSpace(3).M.Order()); got != nil {
		t.Errorf("BlockLengths of a manager without a block = %v, want nil", got)
	}
}

func TestPrefixBDDRoundTrip(t *testing.T) {
	s := NewSpace(2)
	check := func(addr uint32, l uint8) bool {
		l %= 33
		p := route.Prefix{Addr: addr & route.MaskOf(l), Len: l}
		n := s.PrefixBDD(p)
		assign := s.M.AnySat(n)
		if assign == nil {
			return false
		}
		return s.DecodePrefix(assign) == p
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPrefixBDDDistinct(t *testing.T) {
	s := NewSpace(1)
	a := s.PrefixBDD(route.MustParsePrefix("10.0.0.0/8"))
	b := s.PrefixBDD(route.MustParsePrefix("10.0.0.0/16"))
	if a == b {
		t.Error("same address different length must be distinct prefixes")
	}
	if s.M.And(a, b) != bdd.False {
		t.Error("distinct prefixes must be disjoint points")
	}
}

func TestValidCountsPrefixes(t *testing.T) {
	// Valid over a 32-bit space has sum(2^l for l=0..32) = 2^33 - 1
	// satisfying assignments over the addr+len variables.
	s := NewSpace(0)
	got := s.M.SatCountVars(s.Valid(), FirstNbrVar)
	want := float64(1<<33 - 1)
	// The 6-bit length field allows values 33..63 which Valid excludes, and
	// each valid length fixes the remaining address bits, so the count is
	// exact.
	if got != want {
		t.Errorf("SatCount(Valid) = %v, want %v", got, want)
	}
}

func TestPrefixMatchBDD(t *testing.T) {
	s := NewSpace(1)
	m := config.PrefixMatch{Prefix: route.MustParsePrefix("10.0.0.0/8"), GE: 8, LE: 9}
	n := s.PrefixMatchBDD(m)
	// Members: 10.0.0.0/8, 10.0.0.0/9, 10.128.0.0/9 => 3 prefixes.
	if got := s.M.SatCountVars(n, FirstNbrVar); got != 3 {
		t.Errorf("SatCount = %v, want 3", got)
	}
	if s.M.And(n, s.PrefixBDD(route.MustParsePrefix("10.128.0.0/9"))) == bdd.False {
		t.Error("10.128.0.0/9 should match")
	}
	if s.M.And(n, s.PrefixBDD(route.MustParsePrefix("10.0.0.0/10"))) != bdd.False {
		t.Error("/10 should not match le 9")
	}
	if s.M.And(n, s.PrefixBDD(route.MustParsePrefix("11.0.0.0/8"))) != bdd.False {
		t.Error("11/8 should not match")
	}
}

func TestPrefixMatchAgainstConcrete(t *testing.T) {
	// Differential: symbolic PrefixMatchBDD agrees with concrete
	// PrefixMatch.Matches on random prefixes.
	s := NewSpace(0)
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		base := route.Prefix{Addr: r.Uint32(), Len: uint8(r.Intn(25))}
		base.Addr &= route.MaskOf(base.Len)
		ge := base.Len + uint8(r.Intn(4))
		le := ge + uint8(r.Intn(4))
		if le > 32 {
			le = 32
		}
		m := config.PrefixMatch{Prefix: base, GE: ge, LE: le}
		n := s.PrefixMatchBDD(m)
		for k := 0; k < 40; k++ {
			l := uint8(r.Intn(33))
			p := route.Prefix{Addr: r.Uint32() & route.MaskOf(l), Len: l}
			// Bias half the samples into the base subnet.
			if k%2 == 0 && l >= base.Len {
				p.Addr = base.Addr | (p.Addr &^ route.MaskOf(base.Len))
				p.Addr &= route.MaskOf(l)
			}
			sym := s.M.And(n, s.PrefixBDD(p)) != bdd.False
			if sym != m.Matches(p) {
				t.Fatalf("mismatch for %v against %v: symbolic=%v concrete=%v", p, m, sym, m.Matches(p))
			}
		}
	}
}

func TestCondAndPrefixPart(t *testing.T) {
	s := NewSpace(2)
	p := s.PrefixBDD(route.MustParsePrefix("128.0.0.0/2"))
	n1 := s.M.Var(s.NbrVar(0))
	u := s.M.And(p, n1)
	if got := s.Cond(u); got != n1 {
		t.Errorf("Cond should extract the advertiser condition")
	}
	if got := s.PrefixPart(u); got != p {
		t.Errorf("PrefixPart should extract the prefix predicate")
	}
	// The paper's example: Cond(¬p1¬p2) = True.
	if got := s.Cond(p); got != bdd.True {
		t.Errorf("Cond of a pure prefix predicate should be True, got %v", got)
	}
}

func TestLengths(t *testing.T) {
	s := NewSpace(1)
	u := s.M.Or(
		s.PrefixBDD(route.MustParsePrefix("10.0.0.0/8")),
		s.PrefixBDD(route.MustParsePrefix("10.1.0.0/16")),
	)
	got := s.Lengths(u)
	if len(got) != 2 || got[0] != 8 || got[1] != 16 {
		t.Errorf("Lengths = %v", got)
	}
}

func TestCompareSymbolicRoutes(t *testing.T) {
	a := &Route{LocalPref: 200, ASLen: 5}
	b := &Route{LocalPref: 100, ASLen: 1}
	if Compare(a, b) != 1 {
		t.Error("local-pref dominates")
	}
	c := &Route{LocalPref: 100, ASLen: 2}
	if Compare(b, c) != 1 {
		t.Error("shorter symbolic AS path wins")
	}
	d := &Route{LocalPref: 100, ASLen: 1, FromEBGP: true}
	if Compare(d, b) != 1 {
		t.Error("eBGP wins")
	}
	if Compare(b, b) != 0 {
		t.Error("self-compare should tie")
	}
}

func TestMergePaperExample(t *testing.T) {
	// §4.3's merge example: R1 = (p∧n1, "100.*", lp equal), R2 = (p∧n2,
	// "200 200.*"): R1 has shorter AS path, so R2 survives only where n1 is
	// false.
	s := NewSpace(2)
	p := s.PrefixBDD(route.MustParsePrefix("128.0.0.0/2"))
	n1 := s.M.Var(s.NbrVar(0))
	n2 := s.M.Var(s.NbrVar(1))
	r1 := &Route{
		U:      s.M.And(p, n1),
		ASPath: automaton.MustParseRegex("100.*"),
		Comm:   bdd.True,
	}
	r1.SyncASLen()
	r2 := &Route{
		U:      s.M.And(p, n2),
		ASPath: automaton.MustParseRegex("200 200.*"),
		Comm:   bdd.True,
	}
	r2.SyncASLen()
	merged := new(RunMemo).Merge(s, []*Route{r1, r2})
	if len(merged) != 2 {
		t.Fatalf("merged size = %d, want 2", len(merged))
	}
	// Find r1 and r2's survivors.
	var u1, u2 bdd.Node
	for _, r := range merged {
		if r.ASLen == 1 {
			u1 = r.U
		} else {
			u2 = r.U
		}
	}
	if u1 != s.M.And(p, n1) {
		t.Error("preferred route must keep its whole U")
	}
	want := s.M.And(p, s.M.And(s.M.Not(n1), n2))
	if u2 != want {
		t.Error("less preferred route must lose the overlap with n1")
	}
}

func TestMergeEqualPreferenceKeepsBoth(t *testing.T) {
	s := NewSpace(2)
	p := s.PrefixBDD(route.MustParsePrefix("128.0.0.0/2"))
	mk := func(nbr int, nh string) *Route {
		return &Route{
			U:       s.M.And(p, s.M.Var(s.NbrVar(nbr))),
			ASLen:   1,
			Comm:    bdd.True,
			NextHop: nh,
		}
	}
	merged := new(RunMemo).Merge(s, []*Route{mk(0, "a"), mk(1, "b")})
	if len(merged) != 2 {
		t.Fatalf("merged size = %d, want 2 (ECMP)", len(merged))
	}
	for _, r := range merged {
		if s.Cond(r.U) == bdd.False {
			t.Error("equal-preference routes must keep their U")
		}
	}
}

func TestMergeCoalescesIdenticalAttrs(t *testing.T) {
	s := NewSpace(2)
	pa := s.PrefixBDD(route.MustParsePrefix("10.0.0.0/8"))
	pb := s.PrefixBDD(route.MustParsePrefix("20.0.0.0/8"))
	r1 := &Route{U: pa, ASLen: 0, Comm: bdd.True}
	r2 := &Route{U: pb, ASLen: 0, Comm: bdd.True}
	merged := new(RunMemo).Merge(s, []*Route{r1, r2})
	if len(merged) != 1 {
		t.Fatalf("identical-attribute routes should coalesce, got %d", len(merged))
	}
	if merged[0].U != s.M.Or(pa, pb) {
		t.Error("coalesced U should be the union")
	}
}

func TestMergeDropsEmpty(t *testing.T) {
	s := NewSpace(1)
	if got := new(RunMemo).Merge(s, []*Route{{U: bdd.False, Comm: bdd.True}}); len(got) != 0 {
		t.Error("empty routes should be dropped")
	}
	if got := new(RunMemo).Merge(s, nil); len(got) != 0 {
		t.Error("merging nothing should be empty")
	}
}

func TestCompilePolicyFigure4Import(t *testing.T) {
	ctx, devices := newCtx(t, testnet.Figure4)
	pr1 := devices[0]
	tr := CompilePolicy(ctx, pr1.Policies["im1"])
	// im1: permit two /2 prefixes with actions; everything else denied.
	permits := 0
	for _, p := range tr.Pairs {
		if p.Permit {
			permits++
			if len(p.Actions) != 2 {
				t.Errorf("permit pair should carry 2 actions, got %d", len(p.Actions))
			}
		}
	}
	if permits != 1 {
		t.Errorf("got %d permit pairs, want 1", permits)
	}
	// Apply to the wildcard external route.
	r := &Route{
		U:      ctx.Space.M.And(ctx.Space.Valid(), ctx.Space.M.Var(ctx.Space.NbrVar(0))),
		ASPath: automaton.AnyString(),
		Comm:   ctx.Comm.All(),
	}
	r.SyncASLen()
	out := tr.Apply(ctx, r)
	if len(out) != 1 {
		t.Fatalf("Apply produced %d routes, want 1", len(out))
	}
	got := out[0]
	if got.LocalPref != 200 {
		t.Errorf("local-pref = %d, want 200", got.LocalPref)
	}
	// U must now contain exactly the two /2 prefixes (with n1).
	wantU := ctx.Space.M.And(
		ctx.Space.M.Or(
			ctx.Space.PrefixBDD(route.MustParsePrefix("128.0.0.0/2")),
			ctx.Space.PrefixBDD(route.MustParsePrefix("192.0.0.0/2")),
		),
		ctx.Space.M.Var(ctx.Space.NbrVar(0)),
	)
	if got.U != wantU {
		t.Error("permitted U mismatch")
	}
	// Community 300:100 added.
	atom := ctx.Comm.Atoms.AtomOf(route.MustParseCommunity("300:100"))
	if ctx.Comm.M.And(got.Comm, ctx.Comm.M.NVar(atom)) != bdd.False {
		t.Error("every member list should now contain 300:100")
	}
}

func TestCompilePolicyCompleteAndDisjoint(t *testing.T) {
	// Algorithm 2's contract (Equations 6-7): guards partition the route
	// space. Verified on a policy with all three match kinds by sampling.
	text := `
router R
bgp as 1
route-policy p deny node 5
 if-match as-path .*666
route-policy p permit node 10
 if-match prefix 10.0.0.0/8 ge 8 le 24
 if-match community 100:1 100:2
 set local-preference 300
route-policy p permit node 20
 if-match prefix 10.0.0.0/8 ge 8 le 32
route-policy p deny node 30
`
	ctx, devices := newCtx(t, text)
	tr := CompilePolicy(ctx, devices[0].Policies["p"])
	r := rand.New(rand.NewSource(21))
	atoms := ctx.Comm.Atoms
	asCandidates := []*automaton.Automaton{
		automaton.FromWord(nil),
		automaton.MustParseRegex("666"),
		automaton.MustParseRegex("100 666"),
		automaton.MustParseRegex("100"),
	}
	for trial := 0; trial < 300; trial++ {
		// Random concrete route point.
		l := uint8(r.Intn(33))
		p := route.Prefix{Addr: r.Uint32() & route.MaskOf(l), Len: l}
		if trial%2 == 0 {
			p = route.Prefix{Addr: 0x0a000000, Len: uint8(8 + r.Intn(25))}
		}
		commAssign := map[int]bool{}
		for i := 0; i < atoms.Count; i++ {
			commAssign[i] = r.Intn(2) == 0
		}
		asp := asCandidates[r.Intn(len(asCandidates))]
		// Count guards containing this point.
		hits := 0
		for _, pair := range tr.Pairs {
			pOK := ctx.Space.M.And(pair.Guard.Prefix, ctx.Space.PrefixBDD(p)) != bdd.False
			cOK := ctx.Comm.M.Eval(pair.Guard.Comm, commAssign)
			aOK := pair.Guard.ASPath == nil || !pair.Guard.ASPath.Intersect(asp).IsEmpty()
			if pOK && cOK && aOK {
				hits++
			}
		}
		if hits < 1 {
			t.Fatalf("trial %d: point uncovered (completeness violated)", trial)
		}
		// Note: a concrete route hits exactly one guard. Our sample uses an
		// AS-path *language*; singleton languages give exact disjointness.
		if asp.NumStates() > 0 && hits > 1 {
			// Only singleton AS paths are concrete points.
			if w, ok := asp.ShortestWord(); ok && asp.Equals(automaton.FromWord(w)) {
				t.Fatalf("trial %d: point covered by %d guards (disjointness violated)", trial, hits)
			}
		}
	}
}

func TestCompileNilPolicyPermitsAll(t *testing.T) {
	ctx, _ := newCtx(t, testnet.Figure4)
	tr := CompilePolicy(ctx, nil)
	if len(tr.Pairs) != 1 || !tr.Pairs[0].Permit {
		t.Fatal("nil policy should be a single permit-all pair")
	}
	r := &Route{U: ctx.Space.Valid(), ASPath: automaton.AnyString(), Comm: ctx.Comm.All()}
	r.SyncASLen()
	out := tr.Apply(ctx, r)
	if len(out) != 1 || out[0].U != r.U {
		t.Error("permit-all should pass the route unchanged")
	}
}

func TestTransferAmbiguousSplit(t *testing.T) {
	// The paper's §4.3 transfer example: a symbolic route whose community
	// list straddles two nodes is split into two outputs with different
	// local preferences.
	text := `
router R
bgp as 1
route-policy p permit node 10
 if-match community 100:1
 set local-preference 200
route-policy p permit node 20
 set local-preference 300
`
	ctx, devices := newCtx(t, text)
	tr := CompilePolicy(ctx, devices[0].Policies["p"])
	r := &Route{U: ctx.Space.Valid(), ASPath: automaton.AnyString(), Comm: ctx.Comm.All()}
	r.SyncASLen()
	out := tr.Apply(ctx, r)
	if len(out) != 2 {
		t.Fatalf("Apply produced %d routes, want 2", len(out))
	}
	lps := map[uint32]bool{}
	for _, o := range out {
		lps[o.LocalPref] = true
	}
	if !lps[200] || !lps[300] {
		t.Errorf("expected split local-prefs {200,300}, got %v", lps)
	}
}

func TestPrependAndRemoveASLoops(t *testing.T) {
	r := &Route{ASPath: automaton.AnyString(), Comm: bdd.True}
	r.SyncASLen()
	Prepend(r, 300)
	if r.ASLen != 1 {
		t.Errorf("ASLen after prepend = %d, want 1", r.ASLen)
	}
	if !r.ASPath.Matches([]automaton.Symbol{300, 7}) || r.ASPath.Matches([]automaton.Symbol{7}) {
		t.Error("prepend language wrong")
	}
	if !RemoveASLoops(r, 100) {
		t.Fatal("language should remain nonempty")
	}
	if r.ASPath.Matches([]automaton.Symbol{300, 100}) {
		t.Error("paths containing 100 should be removed")
	}
	if !r.ASPath.Matches([]automaton.Symbol{300, 7}) {
		t.Error("paths without 100 should remain")
	}
	// Removing the leading AS empties the language.
	r2 := &Route{ASPath: automaton.FromWord([]automaton.Symbol{42}), Comm: bdd.True}
	r2.SyncASLen()
	if RemoveASLoops(r2, 42) {
		t.Error("removing the only AS should empty the language")
	}
}

func TestUnfold(t *testing.T) {
	ctx, _ := newCtx(t, testnet.Figure4)
	s := ctx.Space
	p := route.MustParsePrefix("128.0.0.0/2")
	r := &Route{
		U:          s.M.And(s.PrefixBDD(p), s.M.Var(s.NbrVar(0))),
		ASPath:     automaton.MustParseRegex("100.*"),
		Comm:       ctx.Comm.EmptyList(),
		LocalPref:  200,
		Originator: "ISP1",
		Path:       []string{"ISP1", "PR1"},
	}
	r.SyncASLen()
	conc, ok := r.Unfold(s, ctx.Comm, p, map[int]bool{s.NbrVar(0): true})
	if !ok {
		t.Fatal("unfold should succeed when n1 is true")
	}
	if conc.LocalPref != 200 || len(conc.ASPath) != 1 || conc.ASPath[0] != 100 {
		t.Errorf("unfolded route wrong: %v", conc)
	}
	if _, ok := r.Unfold(s, ctx.Comm, p, map[int]bool{s.NbrVar(0): false}); ok {
		t.Error("unfold should fail when n1 is false")
	}
	if _, ok := r.Unfold(s, ctx.Comm, route.MustParsePrefix("0.0.0.0/2"), map[int]bool{s.NbrVar(0): true}); ok {
		t.Error("unfold should fail for a prefix outside U")
	}
}

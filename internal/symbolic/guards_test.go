package symbolic

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/route"
)

// The apply-based constructions the cube-set builders replaced, kept as
// the oracle: literal And-chains folded with Or.

func applyAddrBits(s *Space, n bdd.Node, addr uint32, from, to int) bdd.Node {
	for b := from; b < to; b++ {
		if addr&(1<<(31-b)) != 0 {
			n = s.W.And(n, s.M.Var(s.addrVars[b]))
		} else {
			n = s.W.And(n, s.M.NVar(s.addrVars[b]))
		}
	}
	return n
}

func applyPrefixMatch(s *Space, m config.PrefixMatch) bdd.Node {
	high := applyAddrBits(s, bdd.True, m.Prefix.Addr, 0, int(m.Prefix.Len))
	out := bdd.False
	for l := int(m.GE); l <= int(m.LE); l++ {
		// Canonical form: bits at or below the length are zero.
		out = s.W.Or(out, applyAddrBits(s, s.W.And(high, s.M.UintCube(s.lenVars, uint64(l))), 0, l, AddrBits))
	}
	return out
}

func applyPrefix(s *Space, p route.Prefix) bdd.Node {
	return applyAddrBits(s, s.M.UintCube(s.lenVars, uint64(p.Len)), p.Addr, 0, AddrBits)
}

// guardTestSpaces returns spaces under the identity order, the static
// InitialOrder, and an order a forced sifting pass produced.
func guardTestSpaces(t *testing.T) map[string]*Space {
	t.Helper()
	sifted := NewSpace(3)
	// Pairing address bit i with bit 16+i is exponential while the pairs
	// sit 16 levels apart; sifting must move address variables to fix it.
	f := bdd.False
	for i := 0; i < 8; i++ {
		f = sifted.W.Or(f, sifted.W.And(sifted.M.Var(i), sifted.M.Var(16+i)))
	}
	sifted.M.Pin(f)
	before := sifted.M.Order()
	sifted.M.Reorder(f)
	if reflect.DeepEqual(before, sifted.M.Order()) {
		t.Fatal("forced Reorder left the order unchanged")
	}
	return map[string]*Space{
		"identity": NewBlockedSpace(3),
		"initial":  NewSpace(3),
		"sifted":   sifted,
	}
}

// randomMatches draws an if-match prefix list mixing every shape the
// builder must handle: exact matches, ge/le ranges, /0 and /32, duplicates,
// prefixes nested in earlier ones, unmasked host bits, and the GE below
// Prefix.Len specs only a program (not the parser) can produce.
func randomMatches(r *rand.Rand, n int) []config.PrefixMatch {
	var ms []config.PrefixMatch
	for len(ms) < n {
		l := uint8(r.Intn(33))
		p := route.Prefix{Addr: r.Uint32() & route.MaskOf(l), Len: l}
		m := config.PrefixMatch{Prefix: p, GE: l, LE: l}
		switch r.Intn(8) {
		case 0: // exact, as drawn
		case 1: // range
			m.GE = l + uint8(r.Intn(int(33-l)))
			m.LE = m.GE + uint8(r.Intn(int(33-m.GE)))
		case 2: // everything, or the default route alone
			m = config.PrefixMatch{LE: uint8(32 * r.Intn(2))}
		case 3: // host route
			m.Prefix = route.Prefix{Addr: r.Uint32(), Len: 32}
			m.GE, m.LE = 32, 32
		case 4: // duplicate
			if len(ms) > 0 {
				m = ms[r.Intn(len(ms))]
			}
		case 5: // nested in (or overlapping) an earlier spec
			if len(ms) > 0 {
				if o := ms[r.Intn(len(ms))]; o.Prefix.Len < 32 {
					l = o.Prefix.Len + 1 + uint8(r.Intn(int(32-o.Prefix.Len)))
					addr := o.Prefix.Addr&route.MaskOf(o.Prefix.Len) | r.Uint32()&^route.MaskOf(o.Prefix.Len)
					m.Prefix = route.Prefix{Addr: addr & route.MaskOf(l), Len: l}
					m.GE, m.LE = l, l+uint8(r.Intn(int(33-l)))
				}
			}
		case 6: // host bits set below the prefix length
			m.Prefix.Addr = r.Uint32()
			m.LE = l + uint8(r.Intn(int(33-l)))
		case 7: // GE below Prefix.Len: lengths whose zero suffix may collide
			m.GE = uint8(r.Intn(int(l) + 1))
			m.LE = m.GE + uint8(r.Intn(int(33-m.GE)))
		}
		ms = append(ms, m)
	}
	return ms
}

func TestPrefixBuildersMatchApply(t *testing.T) {
	for name, s := range guardTestSpaces(t) {
		r := rand.New(rand.NewSource(11))
		if got, want := s.Valid(), applyPrefixMatch(s, config.PrefixMatch{LE: 32}); got != want {
			t.Errorf("%s: Valid = %v, apply oracle %v", name, got, want)
		}
		for trial := 0; trial < 60; trial++ {
			ms := randomMatches(r, 1+r.Intn(24))
			want := bdd.False
			for _, m := range ms {
				one := applyPrefixMatch(s, m)
				if got := s.PrefixMatchBDD(m); got != one {
					t.Fatalf("%s: PrefixMatchBDD(%v) = %v, apply oracle %v", name, m, got, one)
				}
				want = s.W.Or(want, one)
			}
			if got := s.PrefixMatchBDD(ms...); got != want {
				t.Fatalf("%s: PrefixMatchBDD(%v...) = %v, apply oracle %v", name, ms, got, want)
			}

			ps := make([]route.Prefix, len(ms))
			want = bdd.False
			for i, m := range ms {
				ps[i] = m.Prefix
				one := applyPrefix(s, ps[i])
				if got := s.PrefixBDD(ps[i]); got != one {
					t.Fatalf("%s: PrefixBDD(%v) = %v, apply oracle %v", name, ps[i], got, one)
				}
				if got, dest := s.DestBDD(ps[i]), applyAddrBits(s, bdd.True, ps[i].Addr, 0, int(ps[i].Len)); got != dest {
					t.Fatalf("%s: DestBDD(%v) = %v, apply oracle %v", name, ps[i], got, dest)
				}
				want = s.W.Or(want, one)
			}
			if got := s.PrefixesBDD(ps); got != want {
				t.Fatalf("%s: PrefixesBDD(%v) = %v, apply oracle %v", name, ps, got, want)
			}
		}
		if got := s.PrefixMatchBDD(); got != bdd.False {
			t.Errorf("%s: empty match list = %v, want False", name, got)
		}
	}
}

// TestGELessThanPrefixLen pins the one programmatic shape by hand: a
// length shorter than the prefix zeroes address bits the prefix fixes, so
// it matches only while the prefix has no 1-bit there.
func TestGELessThanPrefixLen(t *testing.T) {
	s := NewSpace(0)
	p := route.MustParsePrefix("10.128.0.0/9")
	// Length 8 would need bit 8 (a 1) to be zero: only /9 survives.
	if got, want := s.PrefixMatchBDD(config.PrefixMatch{Prefix: p, GE: 8, LE: 9}), s.PrefixBDD(p); got != want {
		t.Errorf("1-bit in the gap: got %v, want the /9 alone (%v)", got, want)
	}
	// 10.0.0.0/9 has a 0 there: 10.0.0.0/8 is admitted too.
	q := route.MustParsePrefix("10.0.0.0/9")
	want := s.PrefixesBDD([]route.Prefix{q, route.MustParsePrefix("10.0.0.0/8")})
	if got := s.PrefixMatchBDD(config.PrefixMatch{Prefix: q, GE: 8, LE: 9}); got != want {
		t.Errorf("0-bit in the gap: got %v, want /8 and /9 (%v)", got, want)
	}
}

// TestExactMatchListsCreateNoGarbage: for exact-match lists every node
// the builder creates belongs to the result, so a sweep rooted at the
// result frees nothing and the live count moves by exactly the created
// delta.
func TestExactMatchListsCreateNoGarbage(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for name, s := range guardTestSpaces(t) {
		s.M.Reclaim() // drop what forcing the order left behind
		var ms []config.PrefixMatch
		for i := 0; i < 500; i++ {
			l := uint8(8 + r.Intn(25))
			p := route.Prefix{Addr: r.Uint32() & route.MaskOf(l), Len: l}
			ms = append(ms, config.PrefixMatch{Prefix: p, GE: l, LE: l})
		}
		live := s.M.NumNodes()
		_, before := s.M.UniqueStats()
		f := s.PrefixMatchBDD(ms...)
		_, after := s.M.UniqueStats()
		if after == before {
			t.Fatalf("%s: builder created no nodes", name)
		}
		s.M.Reclaim(f)
		if got, want := s.M.NumNodes()-live, int(after-before); got != want {
			t.Errorf("%s: %d of %d created nodes survive a sweep rooted at the result", name, got, want)
		}
	}
}

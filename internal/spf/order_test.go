package spf

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/symbolic"
	"github.com/expresso-verify/expresso/internal/testnet"
)

// shortestFirst is the legacy data-plane block order (variable index ==
// level: prefix lengths 0 up to 32, top to bottom), the identity case of
// the ordered allocator.
func shortestFirst() []int {
	out := make([]int, symbolic.AddrBits+1)
	for l := range out {
		out[l] = l
	}
	return out
}

// foldFIBDescending is the fold foldFIB replaced, kept as its oracle: from
// the highest priority down, each group keeps what nothing above it
// covered (eff = match ∧ ¬covered).
func foldFIBDescending(w *bdd.Worker, entries []fibEntry) *FIB {
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].length != entries[j].length {
			return entries[i].length > entries[j].length
		}
		return entries[i].admin < entries[j].admin
	})
	portPred := map[string]bdd.Node{}
	arrive, covered := bdd.False, bdd.False
	for i := 0; i < len(entries); {
		j := i
		for j < len(entries) && entries[j].length == entries[i].length && entries[j].admin == entries[i].admin {
			j++
		}
		perPort := map[string]bdd.Node{}
		var order []string
		for k := i; k < j; k++ {
			if _, ok := perPort[entries[k].port]; !ok {
				order = append(order, entries[k].port)
			}
			perPort[entries[k].port] = w.Or(perPort[entries[k].port], entries[k].match)
		}
		groupUnion := bdd.False
		for _, port := range order {
			match := perPort[port]
			groupUnion = w.Or(groupUnion, match)
			eff := w.Diff(match, covered)
			if eff == bdd.False {
				continue
			}
			if port == "" {
				arrive = w.Or(arrive, eff)
			} else {
				portPred[port] = w.Or(portPred[port], eff)
			}
		}
		covered = w.Or(covered, groupUnion)
		i = j
	}
	return NewFIB(portPred, arrive, w.Not(covered), len(entries))
}

// randomEntries draws a rule list that exercises every priority case:
// BGP-like rules conditioned on the length's own advertiser variables
// (several per length and port: ECMP), unconditioned statics and connected
// routes at the same lengths (admin distance within a length), /0 and /32,
// statics nested inside one another, and rules wholly shadowed by a
// same-prefix rule of lower distance (ports that end up empty).
func randomEntries(rng *rand.Rand, sp *symbolic.Space) []fibEntry {
	n := sp.NumNeighbors
	lengths := []int{0, 8, 16, 23, 24, 25, 32}
	ports := []string{"", "A", "B", "C", "D"}
	prefix := func(l int) route.Prefix {
		// Few distinct addresses, so rules nest and collide.
		addr := uint32(10+rng.Intn(2))<<24 | uint32(rng.Intn(2))<<16 | uint32(rng.Intn(2))<<8 | uint32(rng.Intn(2))
		return route.Prefix{Addr: addr & route.MaskOf(uint8(l)), Len: uint8(l)}
	}
	var entries []fibEntry
	for k := 3 + rng.Intn(20); k > 0; k-- {
		l := lengths[rng.Intn(len(lengths))]
		e := fibEntry{length: l, port: ports[rng.Intn(len(ports))], match: sp.DestBDD(prefix(l))}
		switch rng.Intn(4) {
		case 0:
			e.admin = route.ProtoStatic.AdminDistance()
		case 1:
			e.admin, e.port = route.ProtoConnected.AdminDistance(), ""
		default:
			e.admin = route.ProtoBGP.AdminDistance()
			cond := bdd.False
			for c := 1 + rng.Intn(2); c > 0; c-- {
				term := sp.M.Var(sp.DataVar(rng.Intn(n), l))
				if rng.Intn(3) == 0 {
					term = sp.W.And(term, sp.M.NVar(sp.DataVar(rng.Intn(n), l)))
				}
				cond = sp.W.Or(cond, term)
			}
			e.match = sp.W.And(e.match, cond)
		}
		entries = append(entries, e)
		if rng.Intn(4) == 0 {
			// The same packets at the same length on another port, at a
			// worse distance: wholly shadowed.
			entries = append(entries, fibEntry{length: l, admin: e.admin + 1, match: e.match, port: "shadowed"})
		}
	}
	return entries
}

// TestFoldMatchesDescendingOracle checks foldFIB against the fold it
// replaced, handle for handle — both build in one manager, so equal
// functions are equal handles — under the legacy block order, the default
// one, and a sifted one.
func TestFoldMatchesDescendingOracle(t *testing.T) {
	orders := []struct {
		name    string
		lengths func() []int
		sift    bool
	}{
		{"shortest-first", shortestFirst, false},
		{"longest-first", func() []int { return nil }, false},
		{"sifted", func() []int { return nil }, true},
	}
	for _, o := range orders {
		o := o
		t.Run(o.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			sp := symbolic.NewSpace(4)
			sp.DataBlock(o.lengths)
			for trial := 0; trial < 60; trial++ {
				entries := randomEntries(rng, sp)
				if o.sift {
					roots := make([]bdd.Node, len(entries))
					for i, e := range entries {
						roots[i] = e.match
					}
					sp.M.ReorderWith(bdd.ReorderOptions{MaxVars: 8}, roots...)
				}
				want := foldFIBDescending(sp.W, append([]fibEntry(nil), entries...))
				got := foldFIB(sp.W, append([]fibEntry(nil), entries...))
				if got.Arrive != want.Arrive || got.BlackHole != want.BlackHole || got.Entries != want.Entries {
					t.Fatalf("trial %d: arrive %d/%d blackhole %d/%d entries %d/%d (got/want)", trial,
						got.Arrive, want.Arrive, got.BlackHole, want.BlackHole, got.Entries, want.Entries)
				}
				if fmt.Sprint(got.Ports()) != fmt.Sprint(want.Ports()) {
					t.Fatalf("trial %d: ports %v, want %v", trial, got.Ports(), want.Ports())
				}
				for _, port := range want.Ports() {
					if got.PortPred[port] != want.PortPred[port] {
						t.Fatalf("trial %d: port %s predicate differs from the oracle's", trial, port)
					}
				}
			}
		})
	}
}

// buildFIBPerRoute is the FIB compilation buildFIB replaced, kept as its
// oracle: one conversion per route, one rule per (route, length), and a
// linear fold over the rules.
func buildFIBPerRoute(r *Result, sp *symbolic.Space, v string, rib []*symbolic.Route) *FIB {
	d := r.eng.Net.Devices[v]
	var entries []fibEntry
	for _, sr := range rib {
		for _, c := range r.convertU(sp, sr.U) {
			entries = append(entries, fibEntry{length: c.Length, admin: route.ProtoBGP.AdminDistance(), match: c.Match, port: sr.NextHop})
		}
	}
	for _, st := range d.Statics {
		entries = append(entries, fibEntry{length: int(st.Prefix.Len), admin: route.ProtoStatic.AdminDistance(), match: sp.DestBDD(st.Prefix), port: st.NextHop})
	}
	for _, itf := range d.Interfaces {
		entries = append(entries, fibEntry{length: int(itf.Prefix.Len), admin: route.ProtoConnected.AdminDistance(), match: sp.DestBDD(itf.Prefix)})
	}
	return foldFIBDescending(sp.W, entries)
}

// perHopRouter is one router with statics and connected routes at the
// lengths randomRIB draws, and four external peers for its conditions.
const perHopRouter = `
router R
bgp as 100
interface lo0 ip 10.0.0.1/24
interface lo1 ip 10.1.0.1/16
interface lo2 ip 11.0.0.1/32
static 10.0.0.0/8 next-hop A
static 10.1.0.0/24 next-hop B
static 11.0.0.0/16 next-hop A
static 10.1.0.0/16 next-hop C
route-policy all permit node 10
bgp peer W AS 200 import all export all
bgp peer X AS 300 import all export all
bgp peer Y AS 400 import all export all
bgp peer Z AS 500 import all export all
`

// randomRIB draws a BGP RIB with several routes per next hop ("" being a
// locally originated route): each route's U is a few prefix ranges under
// an advertiser condition, ranges nest and collide across hops (ECMP ties
// and shadowing), and some conditions are complementary, so a hop's union
// can drop a variable its routes mention.
func randomRIB(rng *rand.Rand, sp *symbolic.Space) []*symbolic.Route {
	hops := []string{"", "A", "B", "C"}
	lengths := []uint8{0, 8, 16, 23, 24, 25, 32}
	var rib []*symbolic.Route
	for k := 2 + rng.Intn(10); k > 0; k-- {
		var specs []config.PrefixMatch
		for c := 1 + rng.Intn(3); c > 0; c-- {
			l := lengths[rng.Intn(len(lengths))]
			addr := uint32(10+rng.Intn(2))<<24 | uint32(rng.Intn(2))<<16 | uint32(rng.Intn(2))<<8
			le := l
			if rng.Intn(3) == 0 && l < 32 {
				le = l + uint8(1+rng.Intn(int(32-l)))
			}
			specs = append(specs, config.PrefixMatch{Prefix: route.Prefix{Addr: addr & route.MaskOf(l), Len: l}, GE: l, LE: le})
		}
		cond := sp.M.Var(sp.NbrVar(rng.Intn(sp.NumNeighbors)))
		if rng.Intn(2) == 0 {
			cond = sp.W.And(cond, sp.M.NVar(sp.NbrVar(rng.Intn(sp.NumNeighbors))))
		}
		hop := hops[rng.Intn(len(hops))]
		u := sp.W.And(sp.PrefixMatchBDD(specs...), cond)
		rib = append(rib, &symbolic.Route{U: u, NextHop: hop})
		if rng.Intn(3) == 0 {
			// The same prefixes under the complementary condition, via
			// the same hop.
			rib = append(rib, &symbolic.Route{U: sp.W.Diff(sp.PrefixMatchBDD(specs...), cond), NextHop: hop})
		}
	}
	return rib
}

// TestBuildFIBMatchesPerRouteOracle checks buildFIB, which converts one
// union per next hop and folds the priority groups in a balanced tree,
// against one conversion per route and the linear fold: the same port,
// arrival and black-hole handles, and the same rule count, under the
// default block order and the legacy one.
func TestBuildFIBMatchesPerRouteOracle(t *testing.T) {
	for _, o := range []struct {
		name    string
		lengths func() []int
	}{{"longest-first", nil}, {"shortest-first", shortestFirst}} {
		o := o
		t.Run(o.name, func(t *testing.T) {
			eng, _ := converge(t, perHopRouter)
			sp := eng.Space
			sp.DataBlock(o.lengths)
			r := &Result{eng: eng, varsUsed: map[int]bool{}}
			rng := rand.New(rand.NewSource(5))
			for trial := 0; trial < 80; trial++ {
				rib := randomRIB(rng, sp)
				got, want := r.buildFIB(sp, "R", rib), buildFIBPerRoute(r, sp, "R", rib)
				if got.Arrive != want.Arrive || got.BlackHole != want.BlackHole || got.Entries != want.Entries {
					t.Fatalf("trial %d: arrive %d/%d blackhole %d/%d entries %d/%d (got/want)", trial,
						got.Arrive, want.Arrive, got.BlackHole, want.BlackHole, got.Entries, want.Entries)
				}
				if fmt.Sprint(got.Ports()) != fmt.Sprint(want.Ports()) {
					t.Fatalf("trial %d: ports %v, want %v", trial, got.Ports(), want.Ports())
				}
				for _, port := range want.Ports() {
					if got.PortPred[port] != want.PortPred[port] {
						t.Fatalf("trial %d: port %s predicate differs from the per-route oracle's", trial, port)
					}
				}
			}
		})
	}
}

// pecRow is one PEC as an order-independent value.
type pecRow struct {
	path  string
	final FinalState
	count float64
}

// runUnderOrder converges net, runs SPF with the data-plane block ordered
// by lengths (nil: SPF's own choice), and returns the PEC table and the
// size of the FIB ∪ PEC DAG.
func runUnderOrder(t *testing.T, text string, lengths func() []int) ([]pecRow, int) {
	t.Helper()
	eng, cp := converge(t, text)
	if lengths != nil {
		eng.Space.DataBlock(lengths)
	}
	dp := Run(eng, cp)
	m := eng.Space.M
	rows := make([]pecRow, len(dp.PECs))
	for i, p := range dp.PECs {
		rows[i] = pecRow{pathKey(p.Path), p.Final, m.SatCount(p.Pkt)}
	}
	// Everything but the result (and the space's few pinned constants) is
	// garbage now; what survives the sweep is the DAG SPF keeps.
	m.Reclaim(dp.Nodes()...)
	return rows, m.NumNodes()
}

// TestBlockOrderShrinksSPF pins the data-plane block order's win in the
// shape of epvp's TestInterleavedOrderShrinksTestnet: the same network
// under the legacy shortest-first block and under SPF's own order yields
// the same PEC table and a DAG no larger — on region-1, where prefix
// lengths differ enough to matter, strictly smaller. Measured (2026-09):
// region-1 176,756 → 47,800 nodes; the testnet's 169 nodes do not move.
func TestBlockOrderShrinksSPF(t *testing.T) {
	for _, fx := range []struct {
		name, text string
		strict     bool
	}{
		{"testnet", testnet.Figure4, false},
		{"region1", netgen.CSP(netgen.CSPOldRegion(1)), true},
	} {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			legacyRows, legacyNodes := runUnderOrder(t, fx.text, shortestFirst)
			rows, nodes := runUnderOrder(t, fx.text, nil)
			t.Logf("kept DAG: shortest-first %d nodes, ranked %d nodes", legacyNodes, nodes)
			if len(rows) != len(legacyRows) {
				t.Fatalf("%d PECs, %d under the legacy order", len(rows), len(legacyRows))
			}
			for i := range rows {
				if rows[i] != legacyRows[i] {
					t.Errorf("PEC %d: %+v, legacy order %+v", i, rows[i], legacyRows[i])
				}
			}
			if nodes > legacyNodes || (fx.strict && nodes == legacyNodes) {
				t.Errorf("block order does not shrink SPF's DAG: %d nodes against %d (shortest-first)", nodes, legacyNodes)
			}
		})
	}
}

package epvp

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/symbolic"
	"github.com/expresso-verify/expresso/internal/testnet"
)

// mergeChain is Merge as it stood before the tiered loop, kept as
// the oracle: coalesce by AttrsKey, sort by preference, then subtract from
// every Compare class the union of ALL strictly better classes, advancing
// that union class by class. It assumes nothing about its input, so
// agreeing with it handle for handle is what shows the tiers' disjointness
// invariant lost nothing.
func mergeChain(s *symbolic.Space, routes []*symbolic.Route) []*symbolic.Route {
	byAttrs := map[string]*symbolic.Route{}
	var list []*symbolic.Route
	for _, r := range routes {
		if r.U == bdd.False {
			continue
		}
		if ex, ok := byAttrs[r.AttrsKey()]; ok {
			ex.U = s.W.Or(ex.U, r.U)
			continue
		}
		c := r.Clone()
		byAttrs[r.AttrsKey()] = c
		list = append(list, c)
	}
	sort.SliceStable(list, func(i, j int) bool { return symbolic.Compare(list[i], list[j]) > 0 })
	var out []*symbolic.Route
	blocked := bdd.False
	for i := 0; i < len(list); {
		j := i
		for j < len(list) && symbolic.Compare(list[j], list[i]) == 0 {
			j++
		}
		classUnion := bdd.False
		for _, r := range list[i:j] {
			classUnion = s.W.Or(classUnion, r.U)
			if u := s.W.Diff(r.U, blocked); u != bdd.False {
				nr := r.Clone()
				nr.U = u
				out = append(out, nr)
			}
		}
		blocked = s.W.Or(blocked, classUnion)
		i = j
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key() < out[b].Key() })
	return out
}

// tierKey names a route's tier: every Compare field before Originator.
func tierKey(r *symbolic.Route) string {
	return fmt.Sprintf("%s|%d|%d|%d|%d|%v|%d", r.NextHop, r.LocalPref, r.ASLen, r.Origin, r.MED, r.FromEBGP, len(r.Path))
}

// tierOverlap returns a description of two candidates of one tier that are
// neither Compare-equal nor disjoint — a breach of the invariant
// Merge relies on — or "" when there is none. Within a tier only
// Originator tells Compare classes apart, so the check is one running union
// per tier: every Originator's union must miss the union of the others.
func tierOverlap(s *symbolic.Space, cands []*symbolic.Route) string {
	type tier struct {
		byOrig map[string]bdd.Node
		origs  []string
	}
	tiers := map[string]*tier{}
	for _, r := range cands {
		tr := tiers[tierKey(r)]
		if tr == nil {
			tr = &tier{byOrig: map[string]bdd.Node{}}
			tiers[tierKey(r)] = tr
		}
		if _, ok := tr.byOrig[r.Originator]; !ok {
			tr.origs = append(tr.origs, r.Originator)
		}
		tr.byOrig[r.Originator] = s.W.Or(tr.byOrig[r.Originator], r.U)
	}
	for k, tr := range tiers {
		seen := bdd.False
		for _, o := range tr.origs {
			if s.W.And(seen, tr.byOrig[o]) != bdd.False {
				return fmt.Sprintf("tier %s: originator %s overlaps an earlier one", k, o)
			}
			seen = s.W.Or(seen, tr.byOrig[o])
		}
	}
	return ""
}

// initialState is a fixed-point loop's round-0 state: seed's RIBs where it
// has them and the cold initial RIBs elsewhere, merged through memo, plus
// the external wildcard seeds.
func initialState(e *Engine, seed *Result, memo *symbolic.RunMemo) (best map[string][]*symbolic.Route, extInit map[string]*symbolic.Route) {
	best = map[string][]*symbolic.Route{}
	for _, v := range e.Net.Internals {
		if seed != nil {
			if rs, ok := seed.Best[v]; ok {
				best[v] = rs
				continue
			}
		}
		var init []*symbolic.Route
		if r := e.originated(e.Net.Devices[v]); r != nil {
			init = append(init, r)
		}
		best[v] = memo.Merge(e.Space, init)
	}
	extInit = map[string]*symbolic.Route{}
	for _, name := range e.Net.Externals {
		extInit[name] = e.externalInit(name)
	}
	return best, extInit
}

// checkedFixedPoint drives e to its fixed point with a test-owned loop —
// every router recomputed every round, from seed's RIBs where it has them
// and the cold initial state elsewhere, through one run memo kept across
// rounds — and on every recompute asserts the tier invariant on the real
// candidate list and Merge ≡ mergeChain, route for route and handle for
// handle (Key embeds U's handle). With sweep set it sweeps e's manager
// after the first round, rooted as Engine.run roots its own sweeps plus
// keep (a result the caller still compares against), so every later round
// checks memo hits against slots the sweep freed and the rounds reuse.
//
// A sweep empties every op cache, so the oracle round after it runs cold:
// a sweep after every round tripled this package's time under -race, and
// one after the first round in all three orders took it from 14 to 20 min
// on 2 cores (region 4's blocked and shuffled runs are 9 min of the 14).
// Memo validity across a sweep does not depend on the order, so the
// caller sweeps under one.
func checkedFixedPoint(t *testing.T, e *Engine, seed, keep *Result, sweep bool) map[string][]*symbolic.Route {
	t.Helper()
	ctx := context.Background()
	memo := new(symbolic.RunMemo)
	best, extInit := initialState(e, seed, memo)
	merges := 0
	for round := 1; round <= 4*len(e.Net.Internals)+16; round++ {
		next := map[string][]*symbolic.Route{}
		changed := false
		for _, v := range e.Net.Internals {
			cands, err := e.candidates(ctx, v, best, extInit, memo)
			if err != nil {
				t.Fatal(err)
			}
			if msg := tierOverlap(e.Space, cands); msg != "" {
				t.Fatalf("round %d router %s: tier invariant broken: %s", round, v, msg)
			}
			next[v] = memo.Merge(e.Space, cands)
			got, want := symbolic.RIBKey(next[v]), symbolic.RIBKey(mergeChain(e.Space, cands))
			if got != want {
				t.Fatalf("round %d router %s (%d candidates): Merge differs from mergeChain\n got: %s\nwant: %s",
					round, v, len(cands), got, want)
			}
			merges++
			changed = changed || got != symbolic.RIBKey(best[v])
		}
		best = next
		if !changed {
			hits, misses := memo.Stats()
			t.Logf("%d rounds, %d merges checked, merge memo %d hits of %d lookups", round, merges, hits, hits+misses)
			return best
		}
		if sweep && round == 1 {
			e.Space.M.Reclaim(keep.Roots(e.runRoots(best, extInit, seed, memo))...)
		}
	}
	t.Fatal("test loop did not converge")
	return nil
}

// sameRIBs fails unless the test loop's fixed point is the one Engine.Run
// reports (both live in e's manager, so Keys compare directly).
func sameRIBs(t *testing.T, e *Engine, loop map[string][]*symbolic.Route, res *Result) {
	t.Helper()
	for _, v := range e.Net.Internals {
		rs := append([]*symbolic.Route(nil), loop[v]...)
		symbolic.SortCanonical(e.Comm, rs)
		if g, w := symbolic.RIBKey(rs), symbolic.RIBKey(res.Best[v]); g != w {
			t.Errorf("router %s: test loop and Engine.Run disagree\nloop: %s\n run: %s", v, g, w)
		}
	}
}

// mergeOracleOrders are the variable orders every fixture is checked under:
// the production interleaved order, the legacy blocked one, and a seeded
// shuffle (tier disjointness is a property of the functions, handle
// equality of canonicity — neither may depend on the order).
func mergeOracleOrders(n int) map[string]func() *symbolic.Space {
	return map[string]func() *symbolic.Space{
		"interleaved": func() *symbolic.Space { return symbolic.NewSpace(n) },
		"blocked":     func() *symbolic.Space { return symbolic.NewBlockedSpace(n) },
		"shuffled": func() *symbolic.Space {
			// Shuffled inside InitialOrder's blocks (length bits, leading
			// address bits, advertisers, host bits): scattering advertiser
			// variables through the address bits is the layout InitialOrder
			// documents as blowing up, and region 4 does not fit in memory
			// under it.
			order := symbolic.InitialOrder(n)
			r := rand.New(rand.NewSource(7))
			lo := 0
			for _, hi := range []int{symbolic.LenBits, len(order) - n - 8, len(order) - 8, len(order)} {
				block := order[lo:hi]
				r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
				lo = hi
			}
			return symbolic.NewOrderedSpace(n, order)
		},
	}
}

// oracleCase is one network plus a one-router delta of it.
type oracleCase struct {
	name, text, delta, changed string
}

// withNetwork returns text with one more originated prefix on router.
func withNetwork(text, router string) string {
	head := "router " + router + "\n"
	if !strings.Contains(text, head) {
		panic("no section for " + router)
	}
	return strings.Replace(text, head, head+"bgp network 99.0.0.0/16\n", 1)
}

// commSplit is the case the tier definition exists for: an import policy
// that splits ONE advertisement by community into two local preferences.
// Both halves have the same next hop and the same U, so "a neighbor's
// advertisements are disjoint" is false across tiers — it holds, and is
// only needed, within one.
const commSplit = `
router A
bgp as 100
bgp network 10.0.0.0/8
route-policy im permit node 10
 if-match community 100:1
 set local-preference 200
route-policy im permit node 20
bgp peer X AS 200 import im
bgp peer Y AS 300 import im
bgp peer B AS 100 advertise-community

router B
bgp as 100
route-policy im permit node 10
 if-match community 100:1
 set local-preference 50
route-policy im permit node 20
bgp peer A AS 100 advertise-community import im
bgp peer Y AS 300
`

func mergeOracleCases() []oracleCase {
	cases := []oracleCase{
		{"figure4", testnet.Figure4, testnet.Figure4Fixed, "PR1"},
		{"case1-blackhole", testnet.Case1Blackhole, withNetwork(testnet.Case1Blackhole, "A"), "A"},
		{"case2-routeleak", testnet.Case2RouteLeak, withNetwork(testnet.Case2RouteLeak, "B"), "B"},
		{"comm-split", commSplit, withNetwork(commSplit, "B"), "B"},
	}
	for _, i := range []int{1, 4} {
		spec := netgen.CSPOldRegion(i)
		text := netgen.CSP(spec)
		cases = append(cases, oracleCase{fmt.Sprintf("region%d", i), text, withNetwork(text, spec.Name+"PR0"), spec.Name + "PR0"})
	}
	// Small generated WANs: the seed moves the bug sites, the loop index the
	// shape (1–3 reflectors, 3–6 peering routers, 4–9 peers).
	for seed := int64(1); seed <= 24; seed++ {
		spec := netgen.CSPSpec{
			Name: "g", Seed: seed,
			Backbones: 1 + int(seed%3), PeeringRouters: 3 + int(seed%4), Peers: 4 + int(seed%6),
			Prefixes: 24, CustomerPrefixLines: 120,
			LeakBugs: int(seed % 2), HijackBugs: int(seed % 3), TrafficBugs: int((seed / 2) % 2),
		}
		text := netgen.CSP(spec)
		changed := fmt.Sprintf("gPR%d", seed%int64(spec.PeeringRouters))
		cases = append(cases, oracleCase{fmt.Sprintf("netgen-seed%d", seed), text, withNetwork(text, changed), changed})
	}
	return cases
}

// TestMergeMatchesChainOracle is the tiered merge's licence: on every
// recompute of every round of the testnet fixtures, region 1, region 4 and
// 24 generated WANs — cold, then warm-started across a one-router delta —
// under three variable orders, the candidate list satisfies the tier
// invariant and Merge returns exactly what the per-class chain returns.
func TestMergeMatchesChainOracle(t *testing.T) {
	for _, c := range mergeOracleCases() {
		net, netDelta := mustNet(t, c.text), mustNet(t, c.delta)
		for order, newSpace := range mergeOracleOrders(len(net.Externals)) {
			t.Run(c.name+"/"+order, func(t *testing.T) {
				e := engineWithSpace(t, net, newSpace())
				res := e.Run()
				if !res.Converged {
					t.Fatal("Engine.Run did not converge")
				}
				sameRIBs(t, e, checkedFixedPoint(t, e, nil, res, order == "interleaved"), res)

				unchanged := map[string]bool{}
				for _, v := range netDelta.Internals {
					unchanged[v] = v != c.changed
				}
				warm, err := NewWarm(context.Background(), netDelta, e.Mode, e, unchanged)
				if err != nil {
					t.Fatal(err)
				}
				warmRes, err := warm.RunWarmContext(context.Background(), res, []string{c.changed})
				if err != nil || !warmRes.Converged {
					t.Fatalf("warm run: converged=%v err=%v", warmRes != nil && warmRes.Converged, err)
				}
				sameRIBs(t, warm, checkedFixedPoint(t, warm, res, warmRes, order == "interleaved"), warmRes)
			})
		}
	}
}

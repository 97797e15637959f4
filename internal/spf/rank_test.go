package spf

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/epvp"
	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/symbolic"
	"github.com/expresso-verify/expresso/internal/testnet"
)

// routeSets returns the converged RIB's distinct route sets in the order
// RankLengths meets them.
func routeSets(eng *epvp.Engine, cp *epvp.Result) []bdd.Node {
	var sets []bdd.Node
	seen := map[bdd.Node]bool{}
	for _, v := range eng.Net.Internals {
		for _, sr := range cp.Best[v] {
			if !seen[sr.U] {
				seen[sr.U] = true
				sets = append(sets, sr.U)
			}
		}
	}
	return sets
}

// sliceReference is the ranking RankLengths replaced, kept as its
// reference: each set's per-length slice restricted out (Convert without a
// rename is the RestrictMany walk it used), distinct non-empty slices
// counted per length, the lengths ordered by that count, ties longest
// first; and each set's Lengths as the SatUnder walk answered them, the
// lengths whose slice is not empty.
func sliceReference(sp *symbolic.Space, sets []bdd.Node) (counts [symbolic.AddrBits + 1]int, order []int, lengths map[bdd.Node][]int) {
	var distinct [symbolic.AddrBits + 1]map[bdd.Node]bool
	for l := range distinct {
		distinct[l] = map[bdd.Node]bool{}
	}
	lengths = map[bdd.Node][]int{}
	for _, u := range sets {
		for l := range distinct {
			if s, _ := sp.W.Convert(u, symbolic.LengthSlice(l), nil); s != bdd.False {
				distinct[l][s] = true
				lengths[u] = append(lengths[u], l)
			}
		}
	}
	for l := range distinct {
		counts[l] = len(distinct[l])
	}
	order = symbolic.LongestFirst()
	sort.SliceStable(order, func(i, j int) bool { return counts[order[i]] > counts[order[j]] })
	return counts, order, lengths
}

// lengthBitsDown is InitialOrder with the six length bits moved from the
// top of the order to the bottom, below the host bits.
func lengthBitsDown(n int) []int {
	order := symbolic.InitialOrder(n)
	return append(order[symbolic.LenBits:], order[:symbolic.LenBits]...)
}

// inOrder carries a converged RIB into a fresh prefix manager under
// level2var (the import re-canonicalizes every set under that order) and
// returns an engine and result over it that RankLengths can read.
func inOrder(t *testing.T, eng *epvp.Engine, cp *epvp.Result, level2var []int) (*epvp.Engine, *epvp.Result) {
	t.Helper()
	sets := routeSets(eng, cp)
	sp := symbolic.NewOrderedSpace(eng.Space.NumNeighbors, level2var)
	imported, err := sp.M.Import(eng.Space.M.Export(sets...))
	if err != nil {
		t.Fatal(err)
	}
	to := map[bdd.Node]bdd.Node{}
	for i, u := range sets {
		to[u] = imported[i]
	}
	res := &epvp.Result{Best: map[string][]*symbolic.Route{}}
	for v, rib := range cp.Best {
		for _, sr := range rib {
			moved := *sr
			moved.U = to[sr.U]
			res.Best[v] = append(res.Best[v], &moved)
		}
	}
	return &epvp.Engine{Net: eng.Net, Space: sp}, res
}

// TestRankMatchesSliceReference holds the block ranking, counted on
// length cofactors, to the per-length slices it replaced: the same count
// at every length, the same order, and the same Lengths for every route
// set, on the testnet fixtures, regions 1 and 4 and eight netgen seeds,
// and on all but region 4 again under a static order with the length bits
// at the bottom. It also checks the premise the cofactors stand on — every
// converged route set lies inside Valid — and that under the initial order
// the ranking builds no node.
func TestRankMatchesSliceReference(t *testing.T) {
	// Region 4 is checked under the initial order only: carried into the
	// foreign one, its reference slices take half a minute.
	type fixture struct {
		name, text string
		foreign    bool
	}
	fixtures := []fixture{
		{"figure4", testnet.Figure4, true},
		{"figure4-fixed", testnet.Figure4Fixed, true},
		{"case1", testnet.Case1Blackhole, true},
		{"case2", testnet.Case2RouteLeak, true},
		{"region1", netgen.CSP(netgen.CSPOldRegion(1)), true},
		{"region4", netgen.CSP(netgen.CSPOldRegion(4)), false},
	}
	for seed := int64(1); seed <= 8; seed++ {
		fixtures = append(fixtures, fixture{fmt.Sprintf("seed%d", seed), netgen.CSP(netgen.CSPSpec{
			Name: "s", Seed: seed, Backbones: 2, PeeringRouters: 4, Peers: 6, Prefixes: 60,
			CustomerPrefixLines: 600, LeakBugs: 1, HijackBugs: 1, TrafficBugs: 1,
		}), true})
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			eng, cp := converge(t, fx.text)
			for _, u := range routeSets(eng, cp) {
				if eng.Space.M.Diff(u, eng.Space.Valid()) != bdd.False {
					t.Fatalf("route set %d holds a point outside Valid", u)
				}
			}
			_, before := eng.Space.M.UniqueStats()
			RankLengths(eng, cp)
			if _, after := eng.Space.M.UniqueStats(); after != before {
				t.Errorf("ranking under the initial order created %d nodes, want 0", after-before)
			}
			checkRank(t, eng, cp)
			if !fx.foreign {
				return
			}
			t.Run("length-bits-down", func(t *testing.T) {
				foreign, moved := inOrder(t, eng, cp, lengthBitsDown(eng.Space.NumNeighbors))
				checkRank(t, foreign, moved)
			})
		})
	}
}

// checkRank compares sliceCounts, RankLengths and Space.Lengths on one
// converged RIB with sliceReference.
func checkRank(t *testing.T, eng *epvp.Engine, cp *epvp.Result) {
	t.Helper()
	sets := routeSets(eng, cp)
	counts, order, lengths := sliceReference(eng.Space, sets)
	if got := sliceCounts(eng, cp); got != counts {
		t.Errorf("per-length counts %v, slice reference %v", got, counts)
	}
	if got := RankLengths(eng, cp); !slices.Equal(got, order) {
		t.Errorf("order %v, slice reference %v", got, order)
	}
	for _, u := range sets {
		if got := eng.Space.Lengths(u); !slices.Equal(got, lengths[u]) {
			t.Fatalf("Lengths(%d) = %v, slice reference %v", u, got, lengths[u])
		}
	}
	t.Logf("%d route sets, per-length counts %v", len(sets), counts)
}

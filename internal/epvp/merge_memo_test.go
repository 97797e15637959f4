package epvp

import (
	"context"
	"math/rand"
	"testing"

	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/symbolic"
)

// prefixSplit's only iBGP session carries a prefix filter, so the edge
// transfer A→C builds predicates of its own (on region 1 no iBGP session
// has a policy, and every edge entry's U is its input's). Its two halves
// have equal attributes, so C's merge unions them into one route before any
// memoized step: only the edge entry roots the halves, and only the edge
// entry keyed by A's route roots that route's U. D's two routes give the
// merge its hits.
const prefixSplit = `
router A
bgp as 100
bgp peer X AS 200
bgp peer C AS 100

router C
bgp as 100
route-policy im permit node 10
 if-match prefix 10.0.0.0/8 ge 8 le 24
route-policy im permit node 20
 if-match prefix 20.0.0.0/8 ge 8 le 24
bgp peer A AS 100 import im

router D
bgp as 100
bgp peer P AS 300
bgp peer Q AS 400
`

// TestMergeMemoSurvivesSweep fills a run memo with three rounds of
// recomputes, sweeps the manager rooted by runRoots without RIBs — the
// memo and the transfers alone: the RIBs would root most edge outputs too,
// and hide a memo that forgot its own — then hash-conses fresh nodes until every freed slot has
// been handed out again. Every entry must still equal a fresh computation
// from its inputs: a merge entry a fresh Diff/Or of its operands, an edge
// entry a fresh import∘export of its route, handle for handle. A memo
// handle the sweep freed would by now name some other function.
func TestMergeMemoSurvivesSweep(t *testing.T) {
	for name, text := range map[string]string{
		"region1":      netgen.CSP(netgen.CSPOldRegion(1)),
		"prefix-split": prefixSplit,
	} {
		t.Run(name, func(t *testing.T) { checkMemoSurvivesSweep(t, New(mustNet(t, text), FullMode())) })
	}
}

func checkMemoSurvivesSweep(t *testing.T, e *Engine) {
	memo := new(symbolic.RunMemo)
	best, in := initialState(e, nil, memo)
	// Every edge transfer the rounds look up, as candidates walks them.
	type edge struct {
		u, v string
		r    *symbolic.Route
	}
	var edges []edge
	for round := 0; round < 3; round++ {
		next := map[string][]*symbolic.Route{}
		for _, v := range e.Net.Internals {
			for _, u := range e.Net.Neighbors(v) {
				if e.Net.IsInternal(u) {
					for _, r := range best[u] {
						edges = append(edges, edge{u, v, r})
					}
				}
			}
			rs, err := e.recompute(context.Background(), v, best, in, memo)
			if err != nil {
				t.Fatal(err)
			}
			next[v] = rs
		}
		best = next
	}
	if hits, misses := memo.Stats(); misses == 0 || hits == 0 {
		t.Fatalf("memo saw %d hits and %d merge misses; the test needs both", hits, misses)
	}
	if len(edges) == 0 {
		t.Fatal("the rounds looked up no edge transfer")
	}

	freed := e.Space.M.Reclaim(e.runRoots(nil, new(injection), nil, memo)...)
	if freed == 0 {
		t.Fatal("the sweep freed nothing; no slot can be reused")
	}
	vars := make([]int, symbolic.FirstNbrVar)
	for i := range vars {
		vars[i] = i
	}
	r := rand.New(rand.NewSource(1))
	for churned := 0; e.Space.M.Profile().FreeSlots > 0; churned++ {
		if churned > 100*freed {
			t.Fatalf("free slots left after %d churned cubes", churned)
		}
		for i := 0; i < 1000; i++ {
			e.Space.M.UintCube(vars, r.Uint64()&(1<<symbolic.FirstNbrVar-1))
		}
	}
	if err := memo.Check(e.Space.W); err != nil {
		t.Fatalf("after a sweep freeing %d nodes and their reuse: %v", freed, err)
	}
	for _, ed := range edges {
		got := memo.Edge(ed.u, ed.v, ed.r, func() []*symbolic.Route {
			t.Fatalf("edge %s→%s lost its entry for %s", ed.u, ed.v, ed.r.Key())
			return nil
		})
		want := e.importAt(ed.v, ed.u, e.export(ed.u, ed.v, ed.r))
		if len(got) != len(want) {
			t.Fatalf("after a sweep freeing %d nodes and their reuse: edge %s→%s holds %d routes, recomputed %d",
				freed, ed.u, ed.v, len(got), len(want))
		}
		for i := range got {
			if got[i].U != want[i].U || got[i].AttrsKey() != want[i].AttrsKey() {
				t.Fatalf("after a sweep freeing %d nodes and their reuse: edge %s→%s route %d is %s, recomputed %s",
					freed, ed.u, ed.v, i, got[i].Key(), want[i].Key())
			}
		}
	}
}

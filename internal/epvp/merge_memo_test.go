package epvp

import (
	"context"
	"math/rand"
	"testing"

	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/symbolic"
)

// TestMergeMemoSurvivesSweep fills a merge memo with three rounds of region
// 1's recomputes, sweeps the manager rooted by runRoots, then hash-conses
// fresh nodes until every freed slot has been handed out again. Every entry
// must still equal a fresh Diff/Or of its operands: a memo handle the
// sweep freed would by now name some other function.
func TestMergeMemoSurvivesSweep(t *testing.T) {
	e := New(mustNet(t, netgen.CSP(netgen.CSPOldRegion(1))), FullMode())
	edges, memo := newEdgeMemo(), new(symbolic.MergeMemo)
	best, extInit := initialState(e, nil, memo)
	for round := 0; round < 3; round++ {
		next := map[string][]*symbolic.Route{}
		for _, v := range e.Net.Internals {
			rs, err := e.recompute(context.Background(), v, best, extInit, edges, memo)
			if err != nil {
				t.Fatal(err)
			}
			next[v] = rs
		}
		best = next
	}
	if hits, misses := memo.Stats(); misses == 0 || hits == 0 {
		t.Fatalf("memo saw %d hits and %d misses; the test needs both", hits, misses)
	}

	freed := e.Space.M.Reclaim(e.runRoots(best, extInit, nil, edges, memo)...)
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
}

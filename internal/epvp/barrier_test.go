package epvp

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/symbolic"
	"github.com/expresso-verify/expresso/internal/testnet"
)

// TestRelieveOnlySweeps: a barrier under pressure far over every budget
// sweeps once, keeps what its roots reach, and leaves the variable order
// alone — no pressure makes a barrier sift.
func TestRelieveOnlySweeps(t *testing.T) {
	t.Setenv("EXPRESSO_RECLAIM", "1") // every node the manager built is over it
	const n = 6
	m := bdd.New(2 * n)
	// x0·x6 + x1·x7 + …: exponential under the identity order, so a sift
	// would move variables if one ran.
	f := bdd.False
	for i := 0; i < n; i++ {
		f = m.Or(f, m.And(m.Var(i), m.Var(n+i)))
	}
	m.And(m.Var(0), m.Var(3), m.Var(5)) // garbage for the sweep
	hi, lo := m.Fingerprint(f)
	order := m.Order()

	e := &Engine{Space: &symbolic.Space{M: m}}
	relief := e.Relieve(func() []bdd.Node { return []bdd.Node{f} })
	if relief.Sweeps != 1 || relief.SweptNodes == 0 {
		t.Fatalf("relief %+v, want one sweep that freed the garbage", relief)
	}
	if runs := m.ReorderStats().Runs; runs != 0 {
		t.Fatalf("barrier ran %d sift passes, want 0", runs)
	}
	if !reflect.DeepEqual(order, m.Order()) {
		t.Fatalf("barrier changed the variable order: %v -> %v", order, m.Order())
	}
	if h, l := m.Fingerprint(f); h != hi || l != lo {
		t.Fatal("the rooted function changed across the sweep")
	}
}

// garbage hash-conses prefix cubes nothing references until the manager
// holds at least live nodes; next numbers the cubes, so every call builds
// fresh ones.
func garbage(e *Engine, next *uint32, live int) {
	for e.Space.M.NumNodes() < live {
		*next++
		e.Space.PrefixBDD(route.Prefix{Addr: *next * 2654435761, Len: 32})
	}
}

// TestBarrierSweepRules: both barriers weigh the nodes hash-consed since
// the run began or since the manager's last sweep, not the live count; a
// warm engine's pre-SPF barrier also sweeps once the manager is twice its
// live count at the first warm barrier, a floor every warm engine over the
// manager shares; off sweeps nothing.
func TestBarrierSweepRules(t *testing.T) {
	ctx := context.Background()
	net := mustNet(t, testnet.Figure4)
	t.Setenv("EXPRESSO_RECLAIM", "off")
	cold := New(net, FullMode())
	m := cold.Space.M
	// The cold rule needs a manager holding far more than its run builds,
	// as a baseline's holds its policy compile: pin 400 nodes of prefix
	// cubes the run never builds before it starts.
	var next uint32
	for held := m.NumNodes() + 400; m.NumNodes() < held; {
		next++
		m.Pin(cold.Space.PrefixBDD(route.Prefix{Addr: next * 2654435761, Len: 32}))
	}
	res, err := cold.RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	roots := func() []bdd.Node { return res.Roots(cold.Roots()) }
	unchanged := map[string]bool{}
	for _, name := range net.Internals {
		unchanged[name] = true
	}
	warm := func() *Engine {
		w, err := NewWarm(ctx, net, FullMode(), cold, unchanged)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.RunWarmContext(ctx, res, nil); err != nil {
			t.Fatal(err)
		}
		return w
	}
	sweeps := func(e *Engine) int64 { return e.Relieve(roots).Sweeps }

	// Cold: a budget just over the run's own growth is far under the
	// manager's live count, which includes the policy compile.
	_, created := m.UniqueStats()
	budget := created - cold.runStart + 100
	if live := int64(m.NumNodes()); live < 2*budget {
		t.Fatalf("fixture: %d live nodes, want the budget %d well under them", live, budget)
	}
	t.Setenv("EXPRESSO_RECLAIM", fmt.Sprint(budget))
	if n := sweeps(cold); n != 0 {
		t.Fatalf("cold barrier swept %d times on its live count", n)
	}
	garbage(cold, &next, m.NumNodes()+100)
	if n := sweeps(cold); n != 1 {
		t.Fatalf("cold barrier swept %d times once its run grew past the budget, want 1", n)
	}
	if n := sweeps(cold); n != 0 {
		t.Fatalf("barrier swept %d times right after a sweep, want 0", n)
	}

	// Warm: the default budget is far over anything built below.
	t.Setenv("EXPRESSO_RECLAIM", "")
	w1 := warm()
	floor := m.NumNodes()
	if n := sweeps(w1); n != 0 {
		t.Fatalf("first warm barrier swept %d times, want 0: it sets the floor", n)
	}
	garbage(w1, &next, 2*floor-64)
	if live := m.NumNodes(); live >= 2*floor {
		t.Fatalf("fixture: %d live nodes, want under twice the floor %d", live, floor)
	}
	w2 := warm()
	if n := sweeps(w2); n != 0 {
		t.Fatalf("warm barrier under twice the floor swept %d times", n)
	}
	garbage(w2, &next, 2*floor)
	if n := sweeps(cold); n != 0 {
		t.Fatalf("cold engine swept %d times on the warm floor", n)
	}
	if n := sweeps(w2); n != 1 {
		t.Fatalf("warm barrier at twice the floor swept %d times, want 1", n)
	}

	// Off: neither rule fires.
	t.Setenv("EXPRESSO_RECLAIM", "off")
	garbage(w2, &next, 2*floor)
	if n := sweeps(cold) + sweeps(w2); n != 0 {
		t.Fatalf("EXPRESSO_RECLAIM=off swept %d times", n)
	}
}

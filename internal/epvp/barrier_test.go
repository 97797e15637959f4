package epvp

import (
	"reflect"
	"testing"

	"github.com/expresso-verify/expresso/internal/bdd"
)

// TestRelieveOnlySweeps: a barrier under pressure far over every budget
// sweeps once, keeps what its roots reach, and leaves the variable order
// alone — no pressure makes a barrier sift.
func TestRelieveOnlySweeps(t *testing.T) {
	t.Setenv("EXPRESSO_RECLAIM", "") // the default budget
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

	relief := Relieve(m, 1<<40, func() []bdd.Node { return []bdd.Node{f} })
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

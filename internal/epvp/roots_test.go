package epvp

import (
	"slices"
	"testing"

	"github.com/expresso-verify/expresso/internal/netgen"
)

// TestRootsAfterRunAreTheTransfers: a finished run leaves the engine
// rooting only what a warm engine adopts — the permit-all and compiled
// transfers. The run's memo dies with the run, so an SRC artifact that
// pins Engine.Roots pins no acceleration state of the run that built it.
func TestRootsAfterRunAreTheTransfers(t *testing.T) {
	e := New(mustNet(t, netgen.CSP(netgen.CSPOldRegion(1))), FullMode())
	want := e.permitAll.Nodes()
	for _, tr := range e.transfers {
		want = append(want, tr.Nodes()...)
	}
	if res := e.Run(); !res.Converged {
		t.Fatal("EPVP did not converge")
	}
	got := e.Roots()
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("Roots after Run holds %d handles, want the %d of the transfers", len(got), len(want))
	}
}

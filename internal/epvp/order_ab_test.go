package epvp

import (
	"context"
	"testing"

	"github.com/expresso-verify/expresso/internal/community"
	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/symbolic"
	"github.com/expresso-verify/expresso/internal/topology"
)

// engineWithSpace is NewContext with a caller-chosen space, so order
// experiments can A/B the static layout on one network: build adopts the
// spaces of a stub prior engine, and the result is then marked cold.
func engineWithSpace(t *testing.T, net *topology.Network, space *symbolic.Space) *Engine {
	t.Helper()
	devices := make([]*config.Device, 0, len(net.Internals))
	for _, name := range net.Internals {
		devices = append(devices, net.Devices[name])
	}
	stub := &Engine{Space: space, Comm: community.NewSpace(community.ComputeAtoms(devices)), floor: new(int64)}
	e, err := build(context.Background(), net, FullMode(), stub, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.warm = false
	return e
}

// TestInterleavedOrderShrinksTestnet pins the static-order heuristic's
// win: on the region-1 testnet, converging EPVP under the interleaved
// InitialOrder must end with fewer live nodes than the legacy blocked
// layout. Measured (2026-08): blocked 471,990 live / 1,261,696 created;
// interleaved 342,273 live / 1,365,303 created — and at full-old scale
// the gap widens to 5.3x on created nodes (see EXPERIMENTS.md), which is
// what keeps TestProfFullOldLeak inside the suite's time budget.
func TestInterleavedOrderShrinksTestnet(t *testing.T) {
	net := mustNet(t, netgen.CSP(netgen.CSPOldRegion(1)))
	n := len(net.Externals)

	run := func(space *symbolic.Space) (live, created int64, res *Result) {
		e := engineWithSpace(t, net, space)
		res = e.Run()
		live, created = space.M.UniqueStats()
		return
	}

	bLive, bCreated, bRes := run(symbolic.NewBlockedSpace(n))
	iLive, iCreated, iRes := run(symbolic.NewSpace(n))
	t.Logf("blocked: live=%d created=%d; interleaved: live=%d created=%d",
		bLive, bCreated, iLive, iCreated)
	if !bRes.Converged || !iRes.Converged {
		t.Fatalf("EPVP did not converge (blocked=%v interleaved=%v)", bRes.Converged, iRes.Converged)
	}
	if iLive >= bLive {
		t.Errorf("interleaved order does not shrink the converged state: %d live >= %d live (blocked)", iLive, bLive)
	}
	// The routing state itself must be order-independent: same best-route
	// counts per router either way.
	for router, rs := range bRes.Best {
		if got := len(iRes.Best[router]); got != len(rs) {
			t.Errorf("router %s: %d best routes interleaved vs %d blocked", router, got, len(rs))
		}
	}
}

package epvp

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/expresso-verify/expresso/internal/automaton"
	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/spvp"
	"github.com/expresso-verify/expresso/internal/symbolic"
	"github.com/expresso-verify/expresso/internal/testnet"
	"github.com/expresso-verify/expresso/internal/topology"
)

func mustNet(t *testing.T, text string) *topology.Network {
	t.Helper()
	devices, err := config.ParseConfigs(text)
	if err != nil {
		t.Fatal(err)
	}
	net, err := topology.Build(devices)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// envAssign builds the advertiser-variable assignment for a set of
// advertising neighbors.
func envAssign(e *Engine, advertising ...string) map[int]bool {
	assign := map[int]bool{}
	for _, name := range e.Net.Externals {
		assign[e.Space.NbrVar(e.Net.ExternalIndex[name])] = false
	}
	for _, name := range advertising {
		assign[e.Space.NbrVar(e.Net.ExternalIndex[name])] = true
	}
	return assign
}

// materialized filters res.Best[router] to routes whose U contains
// (prefix, env).
func materialized(e *Engine, rs []*symbolic.Route, p route.Prefix, env map[int]bool) []*symbolic.Route {
	var out []*symbolic.Route
	for _, r := range rs {
		if _, ok := r.Unfold(e.Space, e.Comm, p, env); ok {
			out = append(out, r)
		}
	}
	return out
}

func TestFigure4SymbolicLeak(t *testing.T) {
	net := mustNet(t, testnet.Figure4)
	e := New(net, FullMode())
	res := e.Run()
	if !res.Converged {
		t.Fatal("EPVP did not converge")
	}
	// ISP2's received RIB must contain a route originated by ISP1 — the
	// paper's route leak — under the condition that ISP1 advertises.
	leak := false
	for _, r := range res.ExternalRIB["ISP2"] {
		if r.Originator == "ISP1" {
			leak = true
			cond := e.Space.Cond(r.U)
			n1 := e.Space.M.Var(e.Space.NbrVar(net.ExternalIndex["ISP1"]))
			if e.Space.M.And(cond, n1) == bdd.False {
				t.Error("leak condition should include n_ISP1")
			}
			// The leaked prefixes are the two /2s permitted by im1.
			twoPrefixes := e.Space.M.Or(
				e.Space.PrefixBDD(route.MustParsePrefix("128.0.0.0/2")),
				e.Space.PrefixBDD(route.MustParsePrefix("192.0.0.0/2")),
			)
			if e.Space.M.Diff(e.Space.PrefixPart(r.U), twoPrefixes) != bdd.False {
				t.Error("leak should cover only the im1-permitted prefixes")
			}
		}
	}
	if !leak {
		t.Fatal("EPVP missed the Figure 4 route leak")
	}
}

func TestFigure4FixedNoSymbolicLeak(t *testing.T) {
	net := mustNet(t, testnet.Figure4Fixed)
	e := New(net, FullMode())
	res := e.Run()
	for _, r := range res.ExternalRIB["ISP2"] {
		if r.Originator == "ISP1" {
			t.Fatalf("fixed config still leaks: %s", r.AttrsKey())
		}
	}
	// The internal prefix still reaches both ISPs.
	for _, ext := range []string{"ISP1", "ISP2"} {
		found := false
		for _, r := range res.ExternalRIB[ext] {
			if r.Originator == "PR2" {
				found = true
			}
		}
		if !found {
			t.Errorf("internal prefix not exported to %s", ext)
		}
	}
}

func TestInternalRouteConditionTrue(t *testing.T) {
	net := mustNet(t, testnet.Figure4)
	e := New(net, FullMode())
	res := e.Run()
	// PR2's locally originated route must exist under every environment.
	p := route.MustParsePrefix("0.0.0.0/2")
	for _, envAdv := range [][]string{nil, {"ISP1"}, {"ISP2"}, {"ISP1", "ISP2"}} {
		env := envAssign(e, envAdv...)
		ms := materialized(e, res.Best["PR2"], p, env)
		if len(ms) != 1 || ms[0].Originator != "PR2" {
			t.Fatalf("PR2's internal route missing under env %v", envAdv)
		}
	}
}

func TestEPVPMatchesSPVPOnFigure4(t *testing.T) {
	// Soundness differential (Theorem 3 in miniature): for every concrete
	// environment, every concrete SPVP best route is covered by an
	// unfolded symbolic best route with the same attributes, and the
	// symbolic RIB is empty exactly when the concrete one is.
	net := mustNet(t, testnet.Figure4)
	e := New(net, FullMode())
	res := e.Run()

	prefixes := []route.Prefix{
		route.MustParsePrefix("0.0.0.0/2"),
		route.MustParsePrefix("128.0.0.0/2"),
		route.MustParsePrefix("192.0.0.0/2"),
		route.MustParsePrefix("64.0.0.0/2"),
	}
	exts := net.Externals
	for mask := 0; mask < 1<<len(exts); mask++ {
		var advertising []string
		for i, name := range exts {
			if mask&(1<<i) != 0 {
				advertising = append(advertising, name)
			}
		}
		for _, p := range prefixes {
			env := spvp.Environment{}
			for _, name := range advertising {
				env[name] = []route.Route{{
					Prefix:      p,
					ASPath:      []uint32{net.ExternalAS[name]},
					Communities: route.CommunitySet{},
					LocalPref:   route.DefaultLocalPref,
				}}
			}
			conc := spvp.Run(net, p, env)
			assign := envAssign(e, advertising...)
			for _, v := range net.Internals {
				ms := materialized(e, res.Best[v], p, assign)
				if len(conc.Best[v]) == 0 {
					continue // symbolic may retain content-dependent branches
				}
				if len(ms) == 0 {
					t.Fatalf("prefix %v env %v: %s has concrete routes but no symbolic ones", p, advertising, v)
				}
				for _, cr := range conc.Best[v] {
					if !covered(e, ms, cr) {
						t.Fatalf("prefix %v env %v router %s: concrete best %v not covered symbolically", p, advertising, v, cr)
					}
				}
			}
		}
	}
}

// covered reports whether concrete route cr is an unfolding of some
// symbolic route in ms.
func covered(e *Engine, ms []*symbolic.Route, cr route.Route) bool {
	for _, r := range ms {
		if r.NextHop != cr.NextHop && !(r.NextHop == "" && cr.NextHop == cr.Originator) {
			continue
		}
		if r.Originator != cr.Originator || r.LocalPref != cr.LocalPref {
			continue
		}
		if len(r.Path) != len(cr.Path) {
			continue
		}
		same := true
		for i := range r.Path {
			if r.Path[i] != cr.Path[i] {
				same = false
				break
			}
		}
		if !same {
			continue
		}
		if r.ASPath != nil {
			word := make([]automaton.Symbol, len(cr.ASPath))
			for i, as := range cr.ASPath {
				word[i] = automaton.Symbol(as)
			}
			if !r.ASPath.Matches(word) {
				continue
			}
		}
		if !e.Comm.Contains(r.Comm, cr.Communities) {
			continue
		}
		return true
	}
	return false
}

// randomNetwork builds a random prefix-policy-only network: a line of
// internal routers in one AS (iBGP via a route reflector chain is avoided
// by using eBGP between distinct ASes) with 1-2 externals, and import
// policies that permit random prefix sets with random local preferences.
// Prefix-only policies make the symbolic result exact per environment, so
// the differential can require set equality.
func randomNetwork(r *rand.Rand) string {
	nInternal := 2 + r.Intn(2)
	nExternal := 1 + r.Intn(2)
	prefixes := []string{"10.0.0.0/8", "10.1.0.0/16", "20.0.0.0/8", "30.0.0.0/8"}
	var sb []byte
	add := func(format string, args ...interface{}) {
		sb = append(sb, fmt.Sprintf(format, args...)...)
		sb = append(sb, '\n')
	}
	for i := 0; i < nInternal; i++ {
		// Distinct ASes => all sessions are eBGP; no iBGP reflection rules
		// constrain propagation, keeping the concrete/symbolic comparison
		// crisp.
		add("router R%d", i)
		add("bgp as %d", 100+i)
		if i == 0 {
			add("bgp network %s", prefixes[0])
		}
		add("route-policy pol permit node 10")
		// Random subset of prefixes permitted.
		perm := " if-match prefix"
		cnt := 0
		for _, p := range prefixes {
			if r.Intn(2) == 0 {
				perm += " " + p
				cnt++
			}
		}
		if cnt > 0 {
			add("%s", perm)
		}
		if lp := r.Intn(3); lp > 0 {
			add(" set local-preference %d", 100+lp*50)
		}
		if i > 0 {
			add("bgp peer R%d remote-as %d import pol export pol", i-1, 100+i-1)
		}
		if i < nInternal-1 {
			add("bgp peer R%d remote-as %d import pol export pol", i+1, 100+i+1)
		}
		for x := 0; x < nExternal; x++ {
			if r.Intn(2) == 0 || i == 0 {
				add("bgp peer EXT%d remote-as %d import pol export pol", x, 900+x)
			}
		}
	}
	return string(sb)
}

func TestEPVPMatchesSPVPOnRandomNetworks(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	prefixes := []route.Prefix{
		route.MustParsePrefix("10.0.0.0/8"),
		route.MustParsePrefix("10.1.0.0/16"),
		route.MustParsePrefix("20.0.0.0/8"),
		route.MustParsePrefix("30.0.0.0/8"),
		route.MustParsePrefix("40.0.0.0/8"),
	}
	for trial := 0; trial < 20; trial++ {
		text := randomNetwork(r)
		net := mustNet(t, text)
		e := New(net, FullMode())
		res := e.Run()
		if !res.Converged {
			t.Fatalf("trial %d: EPVP did not converge\n%s", trial, text)
		}
		for mask := 0; mask < 1<<len(net.Externals); mask++ {
			var advertising []string
			for i, name := range net.Externals {
				if mask&(1<<i) != 0 {
					advertising = append(advertising, name)
				}
			}
			for _, p := range prefixes {
				env := spvp.Environment{}
				for _, name := range advertising {
					env[name] = []route.Route{{
						Prefix:      p,
						ASPath:      []uint32{net.ExternalAS[name]},
						Communities: route.CommunitySet{},
						LocalPref:   route.DefaultLocalPref,
					}}
				}
				conc := spvp.Run(net, p, env)
				assign := envAssign(e, advertising...)
				for _, v := range net.Internals {
					ms := materialized(e, res.Best[v], p, assign)
					// Prefix-only policies: materialized symbolic routes
					// and concrete best routes must agree exactly on
					// (nexthop, originator, localpref, path).
					if len(ms) != len(conc.Best[v]) {
						t.Fatalf("trial %d prefix %v env %v router %s: symbolic %d vs concrete %d routes\nconfig:\n%s",
							trial, p, advertising, v, len(ms), len(conc.Best[v]), text)
					}
					for _, cr := range conc.Best[v] {
						if !covered(e, ms, cr) {
							t.Fatalf("trial %d prefix %v env %v router %s: %v uncovered\nconfig:\n%s",
								trial, p, advertising, v, cr, text)
						}
					}
				}
			}
		}
	}
}

func TestCase1BlackholeSymbolic(t *testing.T) {
	net := mustNet(t, testnet.Case1Blackhole)
	e := New(net, FullMode())
	res := e.Run()
	p := route.MustParsePrefix("10.1.0.0/16")

	// Environment: only DC advertises -> B has a route via C.
	env := envAssign(e, "DC")
	if ms := materialized(e, res.Best["B"], p, env); len(ms) != 1 || ms[0].NextHop != "C" {
		t.Fatalf("B without hijack: %v", ms)
	}
	// Environment: DC and D advertise -> B is blackholed (no route), C
	// prefers A.
	env = envAssign(e, "DC", "D")
	if ms := materialized(e, res.Best["B"], p, env); len(ms) != 0 {
		t.Fatalf("B should be blackholed, has %d routes", len(ms))
	}
	if ms := materialized(e, res.Best["C"], p, env); len(ms) != 1 || ms[0].NextHop != "A" {
		t.Fatalf("C should prefer A's route: %v", ms)
	}
}

func TestExpressoMinusMode(t *testing.T) {
	// Expresso- (concrete AS paths) still finds the Figure 4 leak.
	net := mustNet(t, testnet.Figure4)
	mode := FullMode()
	mode.SymbolicASPaths = false
	e := New(net, mode)
	res := e.Run()
	leak := false
	for _, r := range res.ExternalRIB["ISP2"] {
		if r.Originator == "ISP1" {
			leak = true
			if r.ASPath != nil {
				t.Error("Expresso- routes should have no automaton")
			}
		}
	}
	if !leak {
		t.Fatal("Expresso- missed the route leak")
	}
}

func TestFeatureModeNone(t *testing.T) {
	// With TrafficPolicies disabled, policies are permit-all: external
	// routes flood everywhere, including the leak (trivially).
	net := mustNet(t, testnet.Figure4)
	e := New(net, Mode{})
	res := e.Run()
	if !res.Converged {
		t.Fatal("no-policy mode did not converge")
	}
	found := false
	for _, r := range res.ExternalRIB["ISP2"] {
		if r.Originator == "ISP1" {
			found = true
		}
	}
	if !found {
		t.Error("permit-all mode should propagate external routes everywhere")
	}
}

// TestAdvertiseDefaultSymbolic: an advertise-default session gives its peer
// exactly the default route, under every environment — also when the
// sender originates 0.0.0.0/0 itself, so its RIB holds a route equal, key
// for key, to the default it injects, whose edge-memo entry must not stand
// in for the injected one.
func TestAdvertiseDefaultSymbolic(t *testing.T) {
	const text = `
router GW
bgp as 100
route-policy all permit node 10
bgp peer ISP AS 200 import all export all
bgp peer EDGE AS 100 advertise-default
%s
router EDGE
bgp as 100
bgp peer GW AS 100
`
	for name, extra := range map[string]string{"plain": "", "gw-originates-default": "bgp network 0.0.0.0/0\n"} {
		net := mustNet(t, fmt.Sprintf(text, extra))
		e := New(net, FullMode())
		res := e.Run()
		edge := res.Best["EDGE"]
		if len(edge) != 1 {
			t.Fatalf("%s: EDGE RIB = %d routes, want 1", name, len(edge))
		}
		if e.Space.PrefixPart(edge[0].U) != e.Space.PrefixBDD(route.Prefix{}) {
			t.Errorf("%s: EDGE's only route should be the default", name)
		}
		if e.Space.Cond(edge[0].U) != bdd.True {
			t.Errorf("%s: default route should exist under every environment", name)
		}
	}
}

func TestIterationCapReported(t *testing.T) {
	net := mustNet(t, testnet.Figure4)
	e := New(net, FullMode())
	res := e.Run()
	if res.Iterations == 0 || res.Iterations > 4*len(net.Internals)+16 {
		t.Errorf("Iterations = %d out of range", res.Iterations)
	}
}

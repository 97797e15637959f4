package properties

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/epvp"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/spf"
	"github.com/expresso-verify/expresso/internal/symbolic"
	"github.com/expresso-verify/expresso/internal/testnet"
	"github.com/expresso-verify/expresso/internal/topology"
)

func pipeline(t *testing.T, text string) (*epvp.Engine, *epvp.Result, *spf.Result) {
	t.Helper()
	devices, err := config.ParseConfigs(text)
	if err != nil {
		t.Fatal(err)
	}
	net, err := topology.Build(devices)
	if err != nil {
		t.Fatal(err)
	}
	eng := epvp.New(net, epvp.FullMode())
	cp := eng.Run()
	if !cp.Converged {
		t.Fatal("EPVP did not converge")
	}
	return eng, cp, spf.Run(eng, cp)
}

func TestRouteLeakFigure4(t *testing.T) {
	eng, cp, _ := pipeline(t, testnet.Figure4)
	vs := CheckRouteLeak(eng, cp)
	if len(vs) != 1 {
		t.Fatalf("got %d route-leak violations, want 1: %v", len(vs), vs)
	}
	v := vs[0]
	if v.Node != "ISP2" || v.Kind != RouteLeakFree {
		t.Errorf("violation = %v", v)
	}
	if v.Cond == bdd.False {
		t.Error("violation condition should be satisfiable")
	}
	// Witness prefix must be one of the two /2s the import policy permits.
	p128 := route.MustParsePrefix("128.0.0.0/2")
	p192 := route.MustParsePrefix("192.0.0.0/2")
	if v.Prefix != p128 && v.Prefix != p192 {
		t.Errorf("witness prefix = %v", v.Prefix)
	}
	// Fixed config: no leaks.
	eng, cp, _ = pipeline(t, testnet.Figure4Fixed)
	if vs := CheckRouteLeak(eng, cp); len(vs) != 0 {
		t.Errorf("fixed config should have no leaks, got %v", vs)
	}
}

func TestRouteLeakCase2CDN(t *testing.T) {
	// Case 2 (the CDN incident): router B's import from ISP2 forgot the
	// no-export tag, so ISP2's routes leak through the CDN to ISP1.
	eng, cp, _ := pipeline(t, testnet.Case2RouteLeak)
	vs := CheckRouteLeak(eng, cp)
	found := false
	for _, v := range vs {
		if v.Node == "ISP1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a leak to ISP1, got %v", vs)
	}
}

// hijackNet reproduces the paper's Violation 2 (Figure 5b): PR2's interface
// /31 is redistributed into BGP; PR1's import from ISPa raises local-pref
// to 200 and lacks a deny entry for the internal /31, so an external
// advertisement of the /31 wins at the route reflector.
const hijackNet = `
router RR
bgp as 100
route-policy all permit node 10
bgp peer PR1 AS 100 reflect-client advertise-community
bgp peer PR2 AS 100 reflect-client advertise-community

router PR1
bgp as 100
route-policy imisp permit node 10
 set local-preference 200
route-policy exisp permit node 10
bgp peer ISPa AS 200 import imisp export exisp
bgp peer RR AS 100 advertise-community

router PR2
bgp as 100
bgp redistribute connected
interface xe0 ip 10.0.0.2/31
bgp peer RR AS 100 advertise-community
`

func TestRouteHijackViolation2(t *testing.T) {
	eng, cp, _ := pipeline(t, hijackNet)
	vs := CheckRouteHijack(eng, cp)
	if len(vs) == 0 {
		t.Fatal("expected route-hijack violations")
	}
	found := false
	for _, v := range vs {
		if v.Prefix == route.MustParsePrefix("10.0.0.2/31") && v.Cond != bdd.False {
			found = true
		}
	}
	if !found {
		t.Errorf("no violation for the /31 interface prefix: %v", vs)
	}
}

func TestRouteHijackCleanNetwork(t *testing.T) {
	// A network whose import policy denies the internal prefix has no
	// hijack.
	text := `
router R1
bgp as 100
bgp network 10.0.0.0/16
route-policy im deny node 5
 if-match prefix 10.0.0.0/16
route-policy im permit node 10
route-policy ex permit node 10
bgp peer ISP AS 200 import im export ex
`
	eng, cp, _ := pipeline(t, text)
	if vs := CheckRouteHijack(eng, cp); len(vs) != 0 {
		t.Errorf("clean network flagged: %v", vs)
	}
}

func TestTrafficHijackCase1Style(t *testing.T) {
	// Violation 3 (Figure 5c): PR1 has a default route toward an ISP and no
	// internal route for DR2's /24 (denied by the RR's export policy), so
	// internal-destination traffic at PR1 exits to the ISP.
	text := `
router RR
bgp as 100
route-policy exnopr1 deny node 5
 if-match prefix 10.9.9.0/24
route-policy exnopr1 permit node 10
route-policy all permit node 10
bgp peer PR1 AS 100 reflect-client export exnopr1
bgp peer PR2 AS 100 reflect-client

router PR1
bgp as 100
route-policy all permit node 10
bgp peer ISPa AS 200 import all export all
bgp peer RR AS 100

router PR2
bgp as 100
bgp network 10.9.9.0/24
bgp peer RR AS 100
`
	eng, cp, dp := pipeline(t, text)
	vs := CheckTrafficHijack(eng, dp)
	found := false
	for _, v := range vs {
		if v.Node == "PR1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected traffic hijack at PR1, got %v", vs)
	}
	_ = cp
}

func TestBlackHoleCase1(t *testing.T) {
	eng, _, dp := pipeline(t, testnet.Case1Blackhole)
	// The hijacked-datacenter scenario: traffic to 10.1.0.0/16 can drop at
	// B. The prefix is external (owned by the DC), so check against it
	// explicitly.
	dest := dp.DestPredicate(route.MustParsePrefix("10.1.0.0/16"))
	vs := CheckBlackHole(eng, dp, dest)
	foundB := false
	for _, v := range vs {
		if v.Node == "B" && v.Cond != bdd.False {
			foundB = true
		}
	}
	if !foundB {
		t.Fatalf("expected a blackhole at B, got %v", vs)
	}
}

func TestLoopFree(t *testing.T) {
	text := `
router R1
bgp as 100
static 10.0.0.0/8 next-hop R2
bgp peer R2 AS 100

router R2
bgp as 100
static 10.0.0.0/8 next-hop R1
bgp peer R1 AS 100
`
	eng, _, dp := pipeline(t, text)
	vs := CheckLoop(eng, dp)
	if len(vs) == 0 {
		t.Fatal("expected loop violations")
	}
	// Clean network: no loops.
	eng, _, dp = pipeline(t, testnet.Figure4)
	if vs := CheckLoop(eng, dp); len(vs) != 0 {
		t.Errorf("Figure 4 should be loop-free, got %v", vs)
	}
}

// bteNet is an Internet2-style BTE policy: RTR tags nothing itself, but
// receives routes carrying BTE from peer networks and must not export them.
// PEERA's and PEERC's exports deny BTE; PEERB's forgot the filter, so PEERB
// receives BTE-tagged routes from both PEERA and PEERC.
const bteNet = `
router RTR
bgp as 11537
route-policy imall permit node 10
route-policy exgood deny node 5
 if-match community 11537:888
route-policy exgood permit node 10
route-policy exbad permit node 10
bgp peer PEERA AS 200 import imall export exgood advertise-community
bgp peer PEERB AS 300 import imall export exbad advertise-community
bgp peer PEERC AS 400 import imall export exgood advertise-community
`

func TestBlockToExternal(t *testing.T) {
	eng, cp, _ := pipeline(t, bteNet)
	bte := route.MustParseCommunity("11537:888")
	vs := CheckBlockToExternal(eng, cp, bte)
	if len(vs) == 0 {
		t.Fatal("expected BTE violations via the unfiltered session")
	}
	for _, v := range vs {
		if v.Node == "PEERA" || v.Node == "PEERC" {
			t.Errorf("filtered session flagged: %v", v)
		}
	}
	foundB := false
	for _, v := range vs {
		if v.Node == "PEERB" {
			foundB = true
		}
	}
	if !foundB {
		t.Error("unfiltered session not flagged")
	}
}

// dedupe is the eager reference's merge: violations with the same kind,
// node and detail merge into the first of them, which keeps its Cond,
// Prefix and Path; only Originators aggregate. The result is sorted by
// kind, node and detail.
func dedupe(vs []Violation) []Violation {
	seen := map[string]int{}
	var out []Violation
	for _, v := range vs {
		k := string(v.Kind) + "|" + v.Node + "|" + v.Detail
		if i, ok := seen[k]; ok {
			out[i].Originators = mergeNames(out[i].Originators, v.Originators)
			continue
		}
		seen[k] = len(out)
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Detail < out[j].Detail
	})
	return out
}

// eagerWitness builds the full finding for one offending route, as the
// checks did before they built a witness per reported violation only.
func eagerWitness(eng *epvp.Engine, kind Kind, ext, detail string, r *symbolic.Route, originators []string) Violation {
	witness := route.Prefix{}
	if assign := eng.Space.M.AnySat(r.U); assign != nil {
		witness = eng.Space.DecodePrefix(assign)
	}
	return Violation{Kind: kind, Node: ext, Detail: detail, Cond: eng.Space.Cond(r.U),
		Prefix: witness, Path: r.Path, Originators: originators}
}

// sameViolations fails unless got and want agree on every reported field
// and on the Cond handle.
func sameViolations(t *testing.T, got, want []Violation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d violations, want %d:\n%v\n%v", len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Kind != w.Kind || g.Node != w.Node || g.Detail != w.Detail || g.Prefix != w.Prefix ||
			g.Cond != w.Cond || !reflect.DeepEqual(g.Path, w.Path) || !reflect.DeepEqual(g.Originators, w.Originators) {
			t.Errorf("violation %d:\n got  %+v\n want %+v", i, g, w)
		}
	}
}

// TestRouteLeakOneWitnessPerNeighbour pins the routing checks that build a
// witness only for the first finding per reported violation against an
// eager reference that builds one for every offending route and then
// dedupes: both must report the same violations, down to the Cond handle.
func TestRouteLeakOneWitnessPerNeighbour(t *testing.T) {
	t.Run("leak", func(t *testing.T) {
		eng, cp, _ := pipeline(t, testnet.Case2RouteLeak)
		got := CheckRouteLeak(eng, cp)
		var eager []Violation
		perNeighbour := map[string]int{}
		for _, ext := range eng.Net.Externals {
			for _, r := range cp.ExternalRIB[ext] {
				if r.Originator == ext || eng.Net.IsInternal(r.Originator) {
					continue
				}
				perNeighbour[ext]++
				eager = append(eager, eagerWitness(eng, RouteLeakFree, ext,
					fmt.Sprintf("externally originated routes leaked to %s", ext), r, []string{r.Originator}))
			}
		}
		if perNeighbour["ISP2a"] < 2 {
			t.Fatalf("ISP2a receives %d leaked routes, want at least 2 so findings merge", perNeighbour["ISP2a"])
		}
		sameViolations(t, got, dedupe(eager))
	})
	t.Run("block-to-external", func(t *testing.T) {
		eng, cp, _ := pipeline(t, bteNet)
		bte := route.MustParseCommunity("11537:888")
		got := CheckBlockToExternal(eng, cp, bte)
		hasBTE := eng.Comm.M.Var(eng.Comm.Atoms.AtomOf(bte))
		var eager []Violation
		perNeighbour := map[string]int{}
		for _, ext := range eng.Net.Externals {
			for _, r := range cp.ExternalRIB[ext] {
				if eng.Comm.M.And(r.Comm, hasBTE) == bdd.False {
					continue
				}
				perNeighbour[ext]++
				eager = append(eager, eagerWitness(eng, BlockToExternal, ext,
					fmt.Sprintf("route carrying %s exported to %s", bte, ext), r, nil))
			}
		}
		if perNeighbour["PEERB"] < 2 {
			t.Fatalf("PEERB receives %d BTE-tagged routes, want at least 2 so findings merge", perNeighbour["PEERB"])
		}
		sameViolations(t, got, dedupe(eager))
	})
}

func TestEgressPreference(t *testing.T) {
	// Figure 4's intent: PR1 prefers ISP1 over ISP2 for Internet prefixes.
	// The configuration achieves this via local-pref 200 — but only when
	// ISP1 actually advertises; when only ISP2 advertises, egress ISP2 is
	// used, which is allowed. EgressPreference must hold here.
	eng, _, dp := pipeline(t, testnet.Figure4)
	d := route.MustParsePrefix("128.0.0.0/2")
	vs := CheckEgressPreference(eng, dp, "PR1", d, []string{"ISP1", "ISP2"})
	if len(vs) != 0 {
		t.Errorf("Figure 4 egress preference should hold, got %v", vs)
	}
	// The reverse order must be violated (traffic can use ISP1 while ISP2
	// is available).
	vs = CheckEgressPreference(eng, dp, "PR1", d, []string{"ISP2", "ISP1"})
	if len(vs) == 0 {
		t.Error("reversed preference should be violated")
	}
}

func TestDedupeAndString(t *testing.T) {
	eng, cp, _ := pipeline(t, testnet.Figure4)
	vs := CheckRouteLeak(eng, cp)
	if len(vs) == 0 {
		t.Fatal("need a violation for formatting test")
	}
	s := vs[0].String()
	if s == "" {
		t.Error("String() empty")
	}
}

package spf

import (
	"testing"

	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/epvp"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/testnet"
	"github.com/expresso-verify/expresso/internal/topology"
)

func runPipeline(t *testing.T, text string) (*epvp.Engine, *epvp.Result, *Result) {
	t.Helper()
	eng, cp := converge(t, text)
	return eng, cp, Run(eng, cp)
}

// converge parses text and runs EPVP to its fixed point.
func converge(t *testing.T, text string) (*epvp.Engine, *epvp.Result) {
	t.Helper()
	return convergeAt(t, text, 0)
}

// convergeAt is converge with the engine's Workers set to workers.
func convergeAt(t *testing.T, text string, workers int) (*epvp.Engine, *epvp.Result) {
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
	eng.Workers = workers
	cp := eng.Run()
	if !cp.Converged {
		t.Fatal("EPVP did not converge")
	}
	return eng, cp
}

// destAssign builds a packet assignment: destination IP bits plus
// data-plane advertiser variables.
func destAssign(dp *Result, ip uint32, advs map[string][]int) map[int]bool {
	assign := map[int]bool{}
	for b := 0; b < 32; b++ {
		assign[b] = ip&(1<<(31-b)) != 0
	}
	for nbr, lengths := range advs {
		for _, l := range lengths {
			assign[dp.DataVar(nbr, l)] = true
		}
	}
	return assign
}

// findPEC looks up the PEC containing the given packet assignment starting
// at node start.
func findPEC(eng *epvp.Engine, dp *Result, start string, assign map[int]bool) *PEC {
	for _, pec := range dp.PECs {
		if pec.Start() != start {
			continue
		}
		if eng.Space.M.Eval(pec.Pkt, assign) {
			return pec
		}
	}
	return nil
}

func pathEq(a []string, b ...string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFigure4PECs(t *testing.T) {
	eng, _, dp := runPipeline(t, testnet.Figure4)

	// Paper's PECs@PR1 (with 3-bit prefixes mapped to IPv4):
	// (¬p1¬p2, [PR2], ARRIVE): dest in 0.0.0.0/2 arrives at PR2.
	ip := route.MustParseIPv4("10.0.0.1") // inside 0.0.0.0/2
	pec := findPEC(eng, dp, "PR1", destAssign(dp, ip, nil))
	if pec == nil {
		t.Fatal("no PEC for internal-prefix traffic at PR1")
	}
	if !pathEq(pec.Path, "PR1", "PR2") || pec.Final != Arrive {
		t.Errorf("internal traffic PEC = %v, want [PR1 PR2] ARRIVE", pec)
	}

	// (p1 n1, [ER1], EXIT): dest in 128.0.0.0/2 with ISP1 advertising the
	// /2 exits via ISP1.
	ip = route.MustParseIPv4("130.0.0.1")
	pec = findPEC(eng, dp, "PR1", destAssign(dp, ip, map[string][]int{"ISP1": {2}}))
	if pec == nil {
		t.Fatal("no PEC for 128/2 with n1")
	}
	if !pathEq(pec.Path, "PR1", "ISP1") || pec.Final != Exit {
		t.Errorf("PEC = %v, want [PR1 ISP1] EXIT", pec)
	}

	// (p1 ¬n1 n2, [PR2, ER2], EXIT): only ISP2 advertising -> two-hop exit.
	pec = findPEC(eng, dp, "PR1", destAssign(dp, ip, map[string][]int{"ISP2": {2}}))
	if pec == nil {
		t.Fatal("no PEC for 128/2 with n2 only")
	}
	if !pathEq(pec.Path, "PR1", "PR2", "ISP2") || pec.Final != Exit {
		t.Errorf("PEC = %v, want [PR1 PR2 ISP2] EXIT", pec)
	}

	// Nobody advertises: 128/2 traffic blackholes at PR1.
	pec = findPEC(eng, dp, "PR1", destAssign(dp, ip, nil))
	if pec == nil || pec.Final != BlackHole {
		t.Errorf("PEC with no advertisers = %v, want BLACKHOLE", pec)
	}
}

func TestLPMDependency(t *testing.T) {
	// The §5.1 scenario: a /8 and a /16 for the same space from different
	// neighbors. When both advertise, the /16 must win for addresses it
	// covers; when only the /8 neighbor advertises, the /8 carries them.
	text := `
router R
bgp as 100
route-policy all permit node 10
bgp peer X AS 200 import all export all
bgp peer Y AS 300 import all export all
`
	eng, _, dp := runPipeline(t, text)
	ip := route.MustParseIPv4("10.1.0.1")

	// Both advertise (X the /8, Y the more specific /16): LPM sends the
	// packet toward Y. The data-plane condition n_Y^16 decides.
	assign := destAssign(dp, ip, map[string][]int{"X": {8}, "Y": {16}})
	pec := findPEC(eng, dp, "R", assign)
	if pec == nil || pec.Final != Exit || pec.Path[1] != "Y" {
		t.Errorf("both advertise: PEC = %v, want exit via Y", pec)
	}
	// Only X's /8 exists.
	assign = destAssign(dp, ip, map[string][]int{"X": {8}})
	pec = findPEC(eng, dp, "R", assign)
	if pec == nil || pec.Final != Exit || pec.Path[1] != "X" {
		t.Errorf("only /8: PEC = %v, want exit via X", pec)
	}
	// X advertises both lengths, Y only /16: ECMP across X and Y for /16.
	// At minimum the packet must still exit.
	assign = destAssign(dp, ip, map[string][]int{"X": {8, 16}, "Y": {16}})
	pec = findPEC(eng, dp, "R", assign)
	if pec == nil || pec.Final != Exit {
		t.Errorf("both /16: PEC = %v, want an exit", pec)
	}
}

func TestDataVarsPerNeighborBounded(t *testing.T) {
	_, _, dp := runPipeline(t, testnet.Figure4)
	for nbr, n := range dp.DataVarsPerNeighbor {
		if n < 1 || n > 32 {
			t.Errorf("neighbor %s uses %d data-plane variables", nbr, n)
		}
	}
}

func TestCase1BlackholePEC(t *testing.T) {
	eng, _, dp := runPipeline(t, testnet.Case1Blackhole)
	ip := route.MustParseIPv4("10.1.0.1")

	// DC advertises the /16, D does not: traffic entering at B flows to C
	// then the DC.
	assign := destAssign(dp, ip, map[string][]int{"DC": {16}})
	pec := findPEC(eng, dp, "B", assign)
	if pec == nil || pec.Final != Exit || !pathEq(pec.Path, "B", "C", "DC") {
		t.Errorf("baseline PEC = %v, want [B C DC] EXIT", pec)
	}
	// D also advertises: C prefers A's route, stops advertising to B, and
	// traffic at B blackholes — the paper's Case 1.
	assign = destAssign(dp, ip, map[string][]int{"DC": {16}, "D": {16}})
	pec = findPEC(eng, dp, "B", assign)
	if pec == nil || pec.Final != BlackHole {
		t.Errorf("hijacked PEC = %v, want BLACKHOLE at B", pec)
	}
}

func TestStaticAndConnectedInFIB(t *testing.T) {
	text := `
router R1
bgp as 100
interface lo0 ip 192.168.1.1/24
static 172.16.0.0/12 next-hop R2
bgp peer R2 AS 100

router R2
bgp as 100
interface lo1 ip 172.16.0.1/12
bgp peer R1 AS 100
`
	eng, _, dp := runPipeline(t, text)
	// Connected: packets to 192.168.1.x arrive at R1.
	pec := findPEC(eng, dp, "R1", destAssign(dp, route.MustParseIPv4("192.168.1.55"), nil))
	if pec == nil || pec.Final != Arrive || !pathEq(pec.Path, "R1") {
		t.Errorf("connected PEC = %v", pec)
	}
	// Static: packets to 172.16.x.y go to R2 and arrive there.
	pec = findPEC(eng, dp, "R1", destAssign(dp, route.MustParseIPv4("172.16.5.5"), nil))
	if pec == nil || pec.Final != Arrive || !pathEq(pec.Path, "R1", "R2") {
		t.Errorf("static PEC = %v", pec)
	}
}

func TestForwardingLoopDetected(t *testing.T) {
	// Two routers statically pointing at each other.
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
	eng, _, dp := runPipeline(t, text)
	pec := findPEC(eng, dp, "R1", destAssign(dp, route.MustParseIPv4("10.1.2.3"), nil))
	if pec == nil || pec.Final != Loop {
		t.Errorf("PEC = %v, want LOOP", pec)
	}
}

func TestPECsPartitionPacketSpace(t *testing.T) {
	// At any start router, PEC predicates are disjoint and cover True.
	eng, _, dp := runPipeline(t, testnet.Figure4)
	for _, start := range eng.Net.Internals {
		union := bdd.False
		pecs := dp.PECsFrom(start, "")
		for i, a := range pecs {
			for _, b := range pecs[i+1:] {
				if eng.Space.M.And(a.Pkt, b.Pkt) != bdd.False {
					// ECMP can legitimately overlap; only flag identical
					// paths.
					t.Logf("overlapping PECs at %s: %v vs %v", start, a, b)
				}
			}
			union = eng.Space.M.Or(union, a.Pkt)
		}
		if union != bdd.True {
			t.Errorf("PECs from %s do not cover the packet space", start)
		}
	}
}

func TestExternalInjection(t *testing.T) {
	// PECs whose path starts at an external neighbor must exist (the paper
	// injects packets at external routers too).
	eng, _, dp := runPipeline(t, testnet.Figure4)
	found := false
	for _, pec := range dp.PECs {
		if pec.Start() == "ISP1" {
			found = true
			if pec.Path[1] != "PR1" {
				t.Errorf("ISP1-injected PEC should enter at PR1: %v", pec)
			}
		}
	}
	if !found {
		t.Error("no PECs injected from ISP1")
	}
	_ = eng
}

func TestCondOfPkt(t *testing.T) {
	eng, _, dp := runPipeline(t, testnet.Figure4)
	// A PEC's advertiser condition must not mention destination bits.
	for _, pec := range dp.PECs {
		cond := dp.CondOfPkt(pec.Pkt)
		for _, v := range eng.Space.M.Support(cond) {
			if v < 32 {
				t.Fatalf("CondOfPkt left a destination bit %d", v)
			}
		}
	}
}

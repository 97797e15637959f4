package config

import (
	"testing"
	"unsafe"

	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/testnet"
)

const figure4 = testnet.Figure4

func TestParseFigure4(t *testing.T) {
	devices, err := ParseConfigs(figure4)
	if err != nil {
		t.Fatal(err)
	}
	if len(devices) != 2 {
		t.Fatalf("got %d devices, want 2", len(devices))
	}
	pr1, pr2 := devices[0], devices[1]
	if pr1.Name != "PR1" || pr2.Name != "PR2" {
		t.Fatalf("device names: %s, %s", pr1.Name, pr2.Name)
	}
	if pr1.AS != 300 || pr2.AS != 300 {
		t.Error("AS numbers wrong")
	}
	if len(pr2.Networks) != 1 || pr2.Networks[0] != route.MustParsePrefix("0.0.0.0/2") {
		t.Error("PR2 network statement wrong")
	}
	if len(pr1.Policies) != 2 {
		t.Errorf("PR1 has %d policies, want 2", len(pr1.Policies))
	}
	im1 := pr1.Policies["im1"]
	if im1 == nil || len(im1.Nodes) != 1 {
		t.Fatal("im1 missing or malformed")
	}
	n := im1.Nodes[0]
	if !n.Permit || len(n.MatchPrefixes) != 2 || len(n.Actions) != 2 {
		t.Errorf("im1 node: permit=%v prefixes=%d actions=%d", n.Permit, len(n.MatchPrefixes), len(n.Actions))
	}
	ex1 := pr1.Policies["ex1"]
	if len(ex1.Nodes) != 2 || ex1.Nodes[0].Permit || !ex1.Nodes[1].Permit {
		t.Error("ex1 should be deny node then permit node")
	}
	// Session flags.
	if p := pr1.PeerWith("PR2"); p == nil || p.AdvertiseCommunity {
		t.Error("PR1->PR2 should exist and lack advertise-community (the bug)")
	}
	if p := pr2.PeerWith("PR1"); p == nil || !p.AdvertiseCommunity {
		t.Error("PR2->PR1 should have advertise-community")
	}
	if p := pr1.PeerWith("ISP1"); p == nil || p.RemoteAS != 100 || p.Import != "im1" || p.Export != "ex1" {
		t.Error("PR1->ISP1 session malformed")
	}
	if pr1.Lines == 0 || pr2.Lines == 0 {
		t.Error("config line counts should be positive")
	}
}

func TestParseExtendedStatements(t *testing.T) {
	text := `
router R1
bgp as 65000
bgp router-id 10.0.0.1
bgp redistribute connected
bgp redistribute static
interface eth0 ip 10.0.0.1/31
static 10.1.0.0/16 next-hop R2
bgp peer DC remote-as 65500 advertise-default reflect-client
route-policy p permit node 10
 if-match prefix 10.0.0.0/8 ge 16 le 24
 if-match as-path 100.*
 set med 50
 delete community 300:[1-9]00
 prepend as-path 65000
`
	devices, err := ParseConfigs(text)
	if err != nil {
		t.Fatal(err)
	}
	d := devices[0]
	if d.RouterID != route.MustParseIPv4("10.0.0.1") {
		t.Error("router-id wrong")
	}
	if !d.RedistributeConnected || !d.RedistributeStatic {
		t.Error("redistribute flags not set")
	}
	if len(d.Interfaces) != 1 || d.Interfaces[0].Prefix != route.MustParsePrefix("10.0.0.0/31") {
		t.Error("interface prefix wrong")
	}
	if len(d.Statics) != 1 || d.Statics[0].NextHop != "R2" {
		t.Error("static route wrong")
	}
	p := d.PeerWith("DC")
	if p == nil || !p.AdvertiseDefault || !p.ReflectClient || p.RemoteAS != 65500 {
		t.Error("DC peer flags wrong")
	}
	n := d.Policies["p"].Nodes[0]
	if len(n.MatchPrefixes) != 1 || n.MatchPrefixes[0].GE != 16 || n.MatchPrefixes[0].LE != 24 {
		t.Errorf("ge/le bounds wrong: %+v", n.MatchPrefixes)
	}
	if n.MatchASPath != "100.*" {
		t.Errorf("as-path match = %q", n.MatchASPath)
	}
	if len(n.Actions) != 3 {
		t.Errorf("got %d actions, want 3", len(n.Actions))
	}
	if n.Actions[2].Kind != ActPrependASPath || n.Actions[2].Value != 65000 {
		t.Error("prepend action wrong")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"bgp as 100",                            // statement before router
		"router R1\nbgp as notanumber",          // bad AS
		"router R1\nnonsense here",              // unknown statement
		"router R1\nif-match prefix 10.0.0.0/8", // if-match outside policy
		"router R1\nroute-policy p permit 100",  // missing 'node'
		"router R1\nroute-policy p permit node 1\n if-match prefix 10.0.0.0/8 ge 4", // ge < len
		"router R1\nbgp peer X import",                                              // missing operand
		"router R1\nstatic 10.0.0.0/8 via R2",                                       // wrong keyword
		"",                                                                          // no routers
		"router R1\nroute-policy p permit node 1\n if-match community 300",   // bad community
		"router R1\nroute-policy p permit node 1\n if-match as-path [1-",     // bad regex
		"router R1\nroute-policy p permit node 1\n set local-preference abc", // bad number
	}
	for _, text := range bad {
		if _, err := ParseConfigs(text); err == nil {
			t.Errorf("ParseConfigs(%q) should fail", text)
		}
	}
}

func TestPrefixMatch(t *testing.T) {
	m := PrefixMatch{Prefix: route.MustParsePrefix("10.0.0.0/16"), GE: 24, LE: 28}
	if m.Matches(route.MustParsePrefix("10.0.0.0/16")) {
		t.Error("exact /16 should not match ge 24")
	}
	if !m.Matches(route.MustParsePrefix("10.0.1.0/24")) {
		t.Error("/24 inside should match")
	}
	if !m.Matches(route.MustParsePrefix("10.0.1.0/28")) {
		t.Error("/28 inside should match")
	}
	if m.Matches(route.MustParsePrefix("10.0.1.0/30")) {
		t.Error("/30 should exceed le 28")
	}
	if m.Matches(route.MustParsePrefix("11.0.0.0/24")) {
		t.Error("prefix outside subnet should not match")
	}
	exact := PrefixMatch{Prefix: route.MustParsePrefix("10.0.0.0/16"), GE: 16, LE: 16}
	if !exact.Matches(route.MustParsePrefix("10.0.0.0/16")) || exact.Matches(route.MustParsePrefix("10.0.0.0/17")) {
		t.Error("exact match misbehaves")
	}
}

func TestCommunityExpr(t *testing.T) {
	e, err := ParseCommunityExpr("300:[1-9]00")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Values) != 9 {
		t.Errorf("expansion size = %d, want 9", len(e.Values))
	}
	if !e.Matches(route.MustParseCommunity("300:100")) || !e.Matches(route.MustParseCommunity("300:900")) {
		t.Error("should match 300:100 and 300:900")
	}
	if e.Matches(route.MustParseCommunity("300:150")) || e.Matches(route.MustParseCommunity("301:100")) {
		t.Error("should not match 300:150 or 301:100")
	}
	lit, err := ParseCommunityExpr("65535:65535")
	if err != nil || len(lit.Values) != 1 {
		t.Fatal("literal expr failed")
	}
	if _, err := ParseCommunityExpr("300:[9-1]00"); err == nil {
		t.Error("inverted class should fail")
	}
}

func TestApplyPolicy(t *testing.T) {
	devices, err := ParseConfigs(figure4)
	if err != nil {
		t.Fatal(err)
	}
	pr1 := devices[0]
	im1 := pr1.Policies["im1"]
	r := route.Route{
		Prefix:      route.MustParsePrefix("128.0.0.0/2"),
		ASPath:      []uint32{100},
		Communities: route.CommunitySet{},
		LocalPref:   route.DefaultLocalPref,
	}
	out, ok := ApplyPolicy(im1, r)
	if !ok {
		t.Fatal("im1 should permit 128.0.0.0/2")
	}
	if out.LocalPref != 200 {
		t.Errorf("local-pref = %d, want 200", out.LocalPref)
	}
	if !out.Communities[route.MustParseCommunity("300:100")] {
		t.Error("community 300:100 should be added")
	}
	// Original route must be unmodified (policies clone).
	if r.LocalPref != route.DefaultLocalPref || len(r.Communities) != 0 {
		t.Error("ApplyPolicy mutated its input")
	}
	// Unmatched prefix: default deny.
	other := r
	other.Prefix = route.MustParsePrefix("16.0.0.0/4")
	if _, ok := ApplyPolicy(im1, other); ok {
		t.Error("im1 should deny unmatched prefixes")
	}
	// ex1 denies routes carrying the community, permits the rest.
	ex1 := pr1.Policies["ex1"]
	if _, ok := ApplyPolicy(ex1, out); ok {
		t.Error("ex1 should deny routes with 300:100")
	}
	if _, ok := ApplyPolicy(ex1, r); !ok {
		t.Error("ex1 should permit routes without the community")
	}
	// Nil policy permits unchanged.
	same, ok := ApplyPolicy(nil, out)
	if !ok || same.LocalPref != out.LocalPref {
		t.Error("nil policy should permit unchanged")
	}
}

func TestApplyPolicyASPathMatch(t *testing.T) {
	text := `
router R1
bgp as 1
route-policy p deny node 10
 if-match as-path .*400
route-policy p permit node 20
`
	devices, err := ParseConfigs(text)
	if err != nil {
		t.Fatal(err)
	}
	p := devices[0].Policies["p"]
	ends400 := route.Route{ASPath: []uint32{100, 400}}
	if _, ok := ApplyPolicy(p, ends400); ok {
		t.Error("paths ending in 400 should be denied")
	}
	other := route.Route{ASPath: []uint32{400, 100}}
	if _, ok := ApplyPolicy(p, other); !ok {
		t.Error("paths not ending in 400 should be permitted")
	}
}

func TestActionApply(t *testing.T) {
	r := route.Route{ASPath: []uint32{2}, Communities: route.NewCommunitySet(route.MustParseCommunity("5:5"))}
	Action{Kind: ActSetLocalPref, Value: 300}.Apply(&r)
	Action{Kind: ActSetMED, Value: 77}.Apply(&r)
	Action{Kind: ActAddCommunity, Community: route.MustParseCommunity("6:6")}.Apply(&r)
	Action{Kind: ActPrependASPath, Value: 1}.Apply(&r)
	if r.LocalPref != 300 || r.MED != 77 {
		t.Error("set actions failed")
	}
	if len(r.ASPath) != 2 || r.ASPath[0] != 1 {
		t.Error("prepend failed")
	}
	if !r.Communities[route.MustParseCommunity("6:6")] {
		t.Error("add community failed")
	}
	expr, _ := ParseCommunityExpr("5:5")
	Action{Kind: ActDeleteCommunity, CommunityExpr: expr}.Apply(&r)
	if r.Communities[route.MustParseCommunity("5:5")] {
		t.Error("delete community failed")
	}
}

func TestPolicyNodeOrdering(t *testing.T) {
	text := `
router R1
bgp as 1
route-policy p permit node 200
 set local-preference 50
route-policy p deny node 100
 if-match prefix 10.0.0.0/8
`
	devices, err := ParseConfigs(text)
	if err != nil {
		t.Fatal(err)
	}
	p := devices[0].Policies["p"]
	if p.Nodes[0].Seq != 100 || p.Nodes[1].Seq != 200 {
		t.Fatal("nodes must be ordered by sequence number")
	}
	// 10/8 hits the deny node first even though it appears later in text.
	if _, ok := ApplyPolicy(p, route.Route{Prefix: route.MustParsePrefix("10.0.0.0/8")}); ok {
		t.Error("node 100 deny should fire first")
	}
	out, ok := ApplyPolicy(p, route.Route{Prefix: route.MustParsePrefix("20.0.0.0/8")})
	if !ok || out.LocalPref != 50 {
		t.Error("node 200 permit should fire for other prefixes")
	}
}

// TestParsedNamesDoNotAliasTheText: parsed devices outlive their input —
// the Load and report caches keep what was built from them — so no name
// they keep may point into the text, which would keep all of it alive.
// Each distinct name is one copy per parse.
func TestParsedNamesDoNotAliasTheText(t *testing.T) {
	text := netgen.CSP(netgen.CSPOldRegion(1))
	devices, err := ParseConfigs(text)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
	hi := lo + uintptr(len(text))
	copies := map[string]*byte{}
	check := func(what, s string) {
		if s == "" {
			return
		}
		p := unsafe.StringData(s)
		if at := uintptr(unsafe.Pointer(p)); at >= lo && at < hi {
			t.Errorf("%s %q points into the configuration text", what, s)
		}
		if first, ok := copies[s]; ok && first != p {
			t.Errorf("%s %q is a second copy of the same name", what, s)
		}
		copies[s] = p
	}
	peers, policies := 0, 0
	for _, d := range devices {
		check("device name", d.Name)
		for name, pol := range d.Policies {
			check("policy key", name)
			check("policy name", pol.Name)
			policies++
		}
		for _, p := range d.Peers {
			check("peer name", p.Neighbor)
			check("import policy", p.Import)
			check("export policy", p.Export)
			peers++
		}
	}
	if len(devices) == 0 || peers == 0 || policies == 0 {
		t.Fatalf("region 1 parsed to %d devices, %d peers, %d policies", len(devices), peers, policies)
	}
}

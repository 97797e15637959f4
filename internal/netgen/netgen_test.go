package netgen

import (
	"strings"
	"testing"

	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/topology"
)

func parseAndBuild(t *testing.T, text string) *topology.Network {
	t.Helper()
	devices, err := config.ParseConfigs(text)
	if err != nil {
		t.Fatalf("generated config does not parse: %v", err)
	}
	net, err := topology.Build(devices)
	if err != nil {
		t.Fatalf("generated config does not build: %v", err)
	}
	return net
}

func TestCSPRegionsParseAndMatchScale(t *testing.T) {
	for i := 1; i <= 4; i++ {
		spec := CSPOldRegion(i)
		net := parseAndBuild(t, CSP(spec))
		s := net.Statistics()
		if s.Nodes != spec.Backbones+spec.PeeringRouters {
			t.Errorf("region%d nodes = %d, want %d", i, s.Nodes, spec.Backbones+spec.PeeringRouters)
		}
		if s.Peers != spec.Peers {
			t.Errorf("region%d peers = %d, want %d", i, s.Peers, spec.Peers)
		}
		// Prefixes: network statements + loopback interfaces.
		if s.Prefixes < spec.Prefixes {
			t.Errorf("region%d prefixes = %d, want >= %d", i, s.Prefixes, spec.Prefixes)
		}
		if s.ConfigLines < spec.CustomerPrefixLines/2 {
			t.Errorf("region%d config lines = %d, too few", i, s.ConfigLines)
		}
		t.Logf("region%d: %+v", i, s)
	}
}

func TestCSPDeterministic(t *testing.T) {
	// The old snapshot seeds three traffic bugs, kept in a map: ranging over
	// it used to order their policies differently on every call.
	for i := 0; i < 8; i++ {
		if CSP(CSPOldRegion(1)) != CSP(CSPOldRegion(1)) || CSP(CSPOldFull()) != CSP(CSPOldFull()) {
			t.Fatal("generation must be deterministic")
		}
	}
}

func TestWithPeers(t *testing.T) {
	spec := CSPOldFull().WithPeers(10)
	if spec.Peers != 10 {
		t.Fatal("WithPeers did not restrict")
	}
	net := parseAndBuild(t, CSP(spec))
	if len(net.Externals) != 10 {
		t.Fatalf("externals = %d, want 10", len(net.Externals))
	}
	// Restricting beyond the spec is a no-op.
	if CSPOldRegion(1).WithPeers(99).Peers != 10 {
		t.Error("WithPeers should not grow the peer count")
	}
}

func TestLeakBugPresent(t *testing.T) {
	spec := CSPOldFull()
	text := CSP(spec)
	// Some reflect-client session must lack advertise-community.
	found := false
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "reflect-client") && !strings.Contains(line, "advertise-community") {
			found = true
		}
	}
	if !found {
		t.Error("leak bug (missing advertise-community) not injected")
	}
	// Hijack bug: a permit node 3 with local-preference 200.
	if !strings.Contains(text, "permit node 3") {
		t.Error("hijack bug not injected")
	}
	// Traffic bug: extraffic policies referenced.
	if !strings.Contains(text, "export extraffic") {
		t.Error("traffic bug not injected")
	}
}

func TestInternet2ParsesAtReducedScale(t *testing.T) {
	spec := Internet2()
	spec.Prefixes = 1000 // keep the unit test fast
	spec.Peers = 30
	net := parseAndBuild(t, GenerateI2(spec))
	s := net.Statistics()
	if s.Nodes != 10 || s.Peers != 30 {
		t.Errorf("stats = %+v", s)
	}
	// The BTE bug: some peer session exports exbad.
	if !strings.Contains(GenerateI2(spec), "export exbad") {
		t.Error("missing BTE filter not injected")
	}
}

func TestInternet2FullScaleParses(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale generation in short mode")
	}
	net := parseAndBuild(t, GenerateI2(Internet2()))
	s := net.Statistics()
	if s.Peers != 300 || s.Prefixes < 32000 {
		t.Errorf("Internet2 stats = %+v", s)
	}
	t.Logf("Internet2: %+v", s)
}

// TestDatasetNames: every name `expresso gen` documents resolves to a
// configuration that parses, -peers cuts it, and an unknown name's error
// lists the valid ones.
func TestDatasetNames(t *testing.T) {
	documented := []string{"region1", "region2", "region3", "region4", "full-old", "full-new", "internet2"}
	for _, name := range documented {
		if testing.Short() && (name == "full-new" || name == "internet2") {
			continue
		}
		text, err := Dataset(name, 3)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if net := parseAndBuild(t, text); len(net.Externals) != 3 {
			t.Errorf("%s cut to 3 peers has %d", name, len(net.Externals))
		}
	}
	if text, _ := Dataset("region1", 0); text != CSP(CSPOldRegion(1)) {
		t.Error("region1 with no cut is not CSPOldRegion(1)")
	}
	_, err := Dataset("nope", 0)
	if err == nil {
		t.Fatal("unknown dataset resolved")
	}
	for _, name := range documented {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %s", err, name)
		}
	}
}

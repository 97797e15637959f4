package enumerate

import (
	"testing"
	"time"

	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/route"
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

func TestFindsFigure4Leak(t *testing.T) {
	net := mustNet(t, testnet.Figure4)
	rep := CheckRouteLeak(net, Options{
		Prefixes: []route.Prefix{route.MustParsePrefix("128.0.0.0/2")},
	})
	if rep.Violations == 0 {
		t.Fatalf("enumeration missed the leak: %+v", rep)
	}
	// 1 prefix x 2^2 advertiser sets.
	if rep.Environments != 4 {
		t.Errorf("environments = %d, want 4", rep.Environments)
	}
	if rep.SpaceSize != 4 {
		t.Errorf("space size = %v, want 4", rep.SpaceSize)
	}
}

func TestCleanConfigNoLeak(t *testing.T) {
	net := mustNet(t, testnet.Figure4Fixed)
	rep := CheckRouteLeak(net, Options{
		Prefixes: []route.Prefix{route.MustParsePrefix("128.0.0.0/2")},
	})
	if rep.Violations != 0 {
		t.Errorf("fixed config flagged: %+v", rep)
	}
}

func TestMaxEnvironmentsCap(t *testing.T) {
	net := mustNet(t, testnet.Figure4)
	rep := CheckRouteLeak(net, Options{
		Prefixes:        []route.Prefix{route.MustParsePrefix("128.0.0.0/2"), route.MustParsePrefix("192.0.0.0/2")},
		MaxEnvironments: 3,
	})
	if rep.Environments != 3 || !rep.TimedOut {
		t.Errorf("cap not respected: %+v", rep)
	}
}

func TestTimeout(t *testing.T) {
	net := mustNet(t, testnet.Figure4)
	rep := CheckRouteLeak(net, Options{Timeout: time.Nanosecond})
	if !rep.TimedOut {
		t.Error("nanosecond timeout should trip")
	}
}

func TestProjection(t *testing.T) {
	net := mustNet(t, testnet.Figure4)
	rep := CheckRouteLeak(net, Options{
		Prefixes: []route.Prefix{route.MustParsePrefix("128.0.0.0/2")},
	})
	if rep.ProjectedYears() <= 0 {
		t.Error("projection should be positive")
	}
	empty := &Report{}
	if empty.ProjectedYears() != 0 {
		t.Error("empty report should project zero")
	}
}

func TestDefaultPrefixUniverse(t *testing.T) {
	net := mustNet(t, testnet.Figure4)
	rep := CheckRouteLeak(net, Options{MaxEnvironments: 8})
	if rep.Environments == 0 {
		t.Error("default universe should produce environments")
	}
}

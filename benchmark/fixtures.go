package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/expresso-verify/expresso"
	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/testnet"
)

//go:embed expected.json
var expectedJSON []byte

// knownAnswer is one fixture's hand-written verdict at seed 1.
type knownAnswer struct {
	Converged bool           `json:"converged"`
	Counts    map[string]int `json:"counts"`
}

func loadExpected() (map[string]knownAnswer, error) {
	var doc struct {
		Fixtures map[string]knownAnswer `json:"fixtures"`
	}
	if err := json.Unmarshal(expectedJSON, &doc); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return doc.Fixtures, nil
}

// fixture is one generated network: the only things the program under
// test ever receives are Text and patches derived from it.
type fixture struct {
	Name    string
	Seed    int64
	Text    string
	Routers []string          // internal routers, sorted
	section map[string]string // router -> its section text
	answer  knownAnswer
}

// makeFixture generates the named fixture. Seed 1 is netgen's canonical
// text; any other seed shuffles the order of the router sections. Section
// order never changes what a configuration means, so every seed has the
// same hand-written known answer and asks for the same amount of work —
// which is what lets ten runs on ten seeds measure the machine's spread
// rather than the seeds'. (Offsetting netgen's own seed instead moves the
// seeded misconfigurations, and with them the cost of a region-4 check by
// ±12 %.)
func makeFixture(name string, seed int64) (*fixture, error) {
	answers, err := loadExpected()
	if err != nil {
		return nil, err
	}
	f := &fixture{Name: name, Seed: seed, answer: answers[name], section: map[string]string{}}
	var spec netgen.CSPSpec
	switch name {
	case "region1":
		spec = netgen.CSPOldRegion(1)
	case "region4":
		spec = netgen.CSPOldRegion(4)
	case "fullold":
		spec = netgen.CSPOldFull()
	case "testnet":
		f.Text = testnet.Figure4
	default:
		return nil, fmt.Errorf("unknown fixture %q", name)
	}
	if f.Text == "" {
		f.Text = netgen.CSP(spec)
	}
	sections := config.SplitSections(f.Text)
	if seed != 1 {
		routers := sections
		if len(routers) > 0 && routers[0].Router == "" {
			routers = routers[1:] // a comment preamble stays in front
		}
		rand.New(rand.NewSource(seed)).Shuffle(len(routers), func(i, j int) {
			routers[i], routers[j] = routers[j], routers[i]
		})
		var b strings.Builder
		for _, s := range sections {
			b.WriteString(s.Text)
		}
		f.Text = b.String()
	}
	for _, s := range sections {
		if s.Router != "" {
			f.Routers = append(f.Routers, s.Router)
			f.section[s.Router] = s.Text
		}
	}
	sort.Strings(f.Routers)
	return f, nil
}

// checkVerdict compares a verdict with the hand-written known answer.
func (f *fixture) checkVerdict(props []expresso.Kind, converged bool, counts map[string]int) error {
	if converged != f.answer.Converged {
		return fmt.Errorf("%s: converged = %v, known answer is %v", f.Name, converged, f.answer.Converged)
	}
	for _, k := range props {
		want, known := f.answer.Counts[string(k)]
		if got := counts[string(k)]; known && got != want {
			return fmt.Errorf("%s: %s = %d violations, known answer is %d", f.Name, k, got, want)
		}
	}
	return nil
}

// patch returns the i-th one-router delta against the fixture: one router
// originates one more internal prefix. The prefix lies inside 10.0.0.0/8,
// which every import policy of the generated networks denies, so the
// delta's known answer is the baseline's. The seed picks where the walk
// over the routers starts and which /16 the new prefixes come from; every
// run still visits every router equally often, because what a delta costs
// depends on which router it touches (a reflector dirties more neighbours
// than a peering router). Prefixes are distinct per i and outside every
// fixture's own 10.0-10.12 range.
func (f *fixture) patch(i int) expresso.Patch {
	router := f.Routers[(i+int(f.Seed))%len(f.Routers)]
	line := fmt.Sprintf("bgp network 10.%d.%d.0/24\n", 200+(int(f.Seed)+i/250)%50, i%250)
	return expresso.Patch{Ops: []expresso.PatchOp{{
		Op: config.SetOp, Router: router,
		Config: strings.TrimRight(f.section[router], "\n") + "\n" + line,
	}}}
}

// parseProps turns "leak,hijack" into property kinds.
func parseProps(list string) ([]expresso.Kind, error) {
	var out []expresso.Kind
	for _, name := range strings.Split(list, ",") {
		k, err := expresso.ParseProperty(name)
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

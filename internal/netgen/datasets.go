package netgen

import (
	"fmt"
	"strings"
)

// datasets is the one name → generator table, in Table 1's order: `expresso
// gen -dataset` and the paper harness (internal/bench) resolve names here.
// Each generator cuts its spec to a number of peers first.
var datasets = []struct {
	name string
	text func(peers int) string
}{
	{"region1", func(p int) string { return CSP(CSPOldRegion(1).WithPeers(p)) }},
	{"region2", func(p int) string { return CSP(CSPOldRegion(2).WithPeers(p)) }},
	{"region3", func(p int) string { return CSP(CSPOldRegion(3).WithPeers(p)) }},
	{"region4", func(p int) string { return CSP(CSPOldRegion(4).WithPeers(p)) }},
	{"full-old", func(p int) string { return CSP(CSPOldFull().WithPeers(p)) }},
	{"full-new", func(p int) string { return CSP(CSPNewFull().WithPeers(p)) }},
	{"internet2", func(p int) string { return GenerateI2(Internet2().WithPeers(p)) }},
}

// Dataset generates the named dataset's configuration text, cut to its
// first peers external neighbors when peers is positive (Figure 6a varies
// them). An unknown name's error lists the valid ones.
func Dataset(name string, peers int) (string, error) {
	var names []string
	for _, d := range datasets {
		if d.name == name {
			return d.text(peers), nil
		}
		names = append(names, d.name)
	}
	return "", fmt.Errorf("netgen: unknown dataset %q (valid: %s)", name, strings.Join(names, ", "))
}

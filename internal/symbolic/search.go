package symbolic

import (
	"fmt"
	"strings"

	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/route"
)

// SearchResult describes one behavior class of a route policy: the guard
// identifying the matching routes and what happens to them.
type SearchResult struct {
	Guard  Guard
	Permit bool
	// LocalPref/MED are the values set by the class's actions (0 if
	// unchanged); AddsCommunities lists communities added; Prepends counts
	// AS-path prependings.
	LocalPref       uint32
	MED             uint32
	AddsCommunities []route.Community
	Prepends        int
}

// SearchPolicy reproduces Batfish's SearchRoutePolicies question (§2.3 of
// the paper): it returns the behavior classes of a route policy whose
// outcome matches wantPermit, skipping empty guards. Unlike the unit test
// in Batfish, the same compiled-transfer machinery drives the full network
// analysis, so a passing policy search plus EPVP covers both local policy
// bugs and end-to-end bugs (e.g. the missing advertise-community of Figure
// 4, which no per-policy unit test can see).
func SearchPolicy(ctx CompileContext, pol *config.Policy, wantPermit bool) []SearchResult {
	var out []SearchResult
	for _, pair := range CompilePolicy(ctx, pol).Pairs {
		if pair.Permit != wantPermit || ctx.emptyGuard(pair.Guard) {
			continue
		}
		r := SearchResult{Guard: pair.Guard, Permit: pair.Permit}
		for _, a := range pair.Actions {
			switch a.Kind {
			case config.ActSetLocalPref:
				r.LocalPref = a.Value
			case config.ActSetMED:
				r.MED = a.Value
			case config.ActAddCommunity:
				r.AddsCommunities = append(r.AddsCommunities, a.Community)
			case config.ActPrependASPath:
				r.Prepends++
			}
		}
		out = append(out, r)
	}
	return out
}

// DescribeGuard renders a guard with witness values, for reports.
func DescribeGuard(ctx CompileContext, g Guard) string {
	var parts []string
	if g.Prefix == bdd.True {
		parts = append(parts, "any prefix")
	} else if assign := ctx.Space.M.AnySat(g.Prefix); assign != nil {
		parts = append(parts, fmt.Sprintf("prefixes incl. %s", ctx.Space.DecodePrefix(assign)))
	} else {
		parts = append(parts, "no prefix")
	}
	if g.Comm != bdd.True {
		parts = append(parts, "community-constrained")
	}
	if g.ASPath != nil {
		if w, ok := g.ASPath.ShortestWord(); ok {
			parts = append(parts, fmt.Sprintf("as-path incl. %v", w))
		} else {
			parts = append(parts, "no as-path")
		}
	}
	return strings.Join(parts, ", ")
}

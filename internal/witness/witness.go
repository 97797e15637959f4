// Package witness concretizes symbolic verification results: it turns a
// property violation's advertiser condition into one concrete
// external-route environment (which neighbors advertise which prefixes,
// with which attributes) and replays that environment through the concrete
// SPVP engine to confirm the violation end to end.
//
// This closes the loop the paper's operators performed by hand when
// confirming Expresso's findings (§7.1): every symbolic finding comes with
// a reproducible concrete scenario.
package witness

import (
	"fmt"
	"sort"
	"strings"

	"github.com/expresso-verify/expresso/internal/epvp"
	"github.com/expresso-verify/expresso/internal/properties"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/spvp"
)

// Advertisement is one concrete external announcement of the scenario.
type Advertisement struct {
	Neighbor string
	Route    route.Route
}

// Scenario is a concrete external-route environment witnessing a
// violation.
type Scenario struct {
	// Prefix is the destination prefix the violation concerns.
	Prefix route.Prefix
	// Advertisements lists what each advertising neighbor announces.
	Advertisements []Advertisement
	// Silent lists neighbors that must NOT advertise the prefix for the
	// violation to manifest.
	Silent []string
}

// String renders the scenario as an operator-readable recipe.
func (s *Scenario) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "prefix %s:", s.Prefix)
	for _, a := range s.Advertisements {
		fmt.Fprintf(&sb, " %s advertises (asPath %v)", a.Neighbor, a.Route.ASPath)
		if len(a.Route.Communities) > 0 {
			fmt.Fprintf(&sb, " with %s", a.Route.Communities)
		}
		sb.WriteByte(';')
	}
	if len(s.Silent) > 0 {
		fmt.Fprintf(&sb, " silent: %s", strings.Join(s.Silent, ","))
	}
	return sb.String()
}

// Environment converts the scenario to a concrete SPVP environment.
func (s *Scenario) Environment() spvp.Environment {
	env := spvp.Environment{}
	for _, a := range s.Advertisements {
		env[a.Neighbor] = append(env[a.Neighbor], a.Route)
	}
	return env
}

// Concretize extracts a concrete scenario from a routing-property
// violation (RouteLeakFree, RouteHijackFree, BlockToExternal): one
// satisfying assignment of the violation's advertiser condition, using the
// witness prefix, with each advertising neighbor announcing a plain route
// whose AS path is its own AS.
func Concretize(eng *epvp.Engine, v properties.Violation) (*Scenario, error) {
	assign := eng.Space.M.AnySat(v.Cond)
	if assign == nil {
		return nil, fmt.Errorf("witness: violation condition is unsatisfiable")
	}
	s := &Scenario{Prefix: v.Prefix}
	for _, nbr := range eng.Net.Externals {
		val, mentioned := assign[eng.Space.NbrVar(eng.Net.ExternalIndex[nbr])]
		switch {
		case mentioned && val:
			s.Advertisements = append(s.Advertisements, Advertisement{
				Neighbor: nbr,
				Route: route.Route{
					Prefix:      v.Prefix,
					ASPath:      []uint32{eng.Net.ExternalAS[nbr]},
					Communities: route.CommunitySet{},
					LocalPref:   route.DefaultLocalPref,
				},
			})
		case mentioned:
			s.Silent = append(s.Silent, nbr)
		}
	}
	// If the condition mentions no advertiser at all but the violation has
	// originators, let the first originator advertise (the condition True
	// means "under any environment where the route exists").
	if len(s.Advertisements) == 0 && len(v.Originators) > 0 {
		nbr := v.Originators[0]
		s.Advertisements = append(s.Advertisements, Advertisement{
			Neighbor: nbr,
			Route: route.Route{
				Prefix:      v.Prefix,
				ASPath:      []uint32{eng.Net.ExternalAS[nbr]},
				Communities: route.CommunitySet{},
				LocalPref:   route.DefaultLocalPref,
			},
		})
	}
	sort.Slice(s.Advertisements, func(i, j int) bool {
		return s.Advertisements[i].Neighbor < s.Advertisements[j].Neighbor
	})
	sort.Strings(s.Silent)
	return s, nil
}

// Replay runs the scenario through concrete SPVP and checks whether the
// violation reproduces. It understands the routing properties:
//
//   - RouteLeakFree: some external neighbor receives a route originated by
//     a different external neighbor;
//   - RouteHijackFree: the violation's router selects an
//     externally-originated best route for the internal witness prefix;
//   - BlockToExternal is validated structurally like RouteLeakFree (the
//     tagged route reaching the neighbor).
//
// It returns a human-readable confirmation, or an error if the violation
// does not reproduce (which would indicate an imprecision — e.g. a finding
// depending on non-default attributes; see §8 of the paper).
func Replay(eng *epvp.Engine, v properties.Violation, s *Scenario) (string, error) {
	res := spvp.Run(eng.Net, s.Prefix, s.Environment())
	if !res.Converged {
		return "", fmt.Errorf("witness: concrete SPVP did not converge")
	}
	switch v.Kind {
	case properties.RouteLeakFree, properties.BlockToExternal:
		for _, r := range res.ExternalReceived[v.Node] {
			if r.Originator != v.Node && !eng.Net.IsInternal(r.Originator) {
				return fmt.Sprintf("confirmed: %s received a route for %s originated by %s (path %s)",
					v.Node, s.Prefix, r.Originator, strings.Join(r.Path, " -> ")), nil
			}
		}
		return "", fmt.Errorf("witness: no leaked route reached %s in the concrete replay", v.Node)
	case properties.RouteHijackFree:
		for _, r := range res.Best[v.Node] {
			if !eng.Net.IsInternal(r.Originator) {
				return fmt.Sprintf("confirmed: %s selects the external route from %s as best for %s (local-pref %d)",
					v.Node, r.Originator, s.Prefix, r.LocalPref), nil
			}
		}
		return "", fmt.Errorf("witness: %s did not select an external route in the concrete replay", v.Node)
	default:
		return "", fmt.Errorf("witness: replay not supported for %s (forwarding properties use data-plane conditions)", v.Kind)
	}
}

// ConfirmRoutingViolations concretizes and replays every routing-property
// violation, returning one confirmation line per violation. Violations
// that fail to reproduce are reported with their error (they indicate
// modeled-away attributes rather than false findings; none occur in the
// test suite).
func ConfirmRoutingViolations(eng *epvp.Engine, vs []properties.Violation) []string {
	var out []string
	for _, v := range vs {
		if p, _ := properties.Lookup(v.Kind); p.Stage != properties.Routing {
			continue
		}
		s, err := Concretize(eng, v)
		if err != nil {
			out = append(out, fmt.Sprintf("%s: %v", v.Kind, err))
			continue
		}
		msg, err := Replay(eng, v, s)
		if err != nil {
			out = append(out, fmt.Sprintf("%s at %s: NOT REPRODUCED: %v", v.Kind, v.Node, err))
			continue
		}
		out = append(out, fmt.Sprintf("%s at %s: %s [%s]", v.Kind, v.Node, msg, s))
	}
	return out
}

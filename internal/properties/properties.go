// Package properties implements Expresso's property analysis (§6 of the
// paper): routing properties checked against symbolic RIBs
// (RouteLeakFree, RouteHijackFree, BlockToExternal) and forwarding
// properties checked against PECs (TrafficHijackFree, BlackHoleFree,
// LoopFree, EgressPreference).
package properties

import (
	"fmt"
	"sort"
	"strings"

	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/epvp"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/spf"
	"github.com/expresso-verify/expresso/internal/symbolic"
)

// Kind names a property.
type Kind string

// Supported properties.
const (
	RouteLeakFree     Kind = "RouteLeakFree"
	RouteHijackFree   Kind = "RouteHijackFree"
	TrafficHijackFree Kind = "TrafficHijackFree"
	BlackHoleFree     Kind = "BlackHoleFree"
	LoopFree          Kind = "LoopFree"
	BlockToExternal   Kind = "BlockToExternal"
	EgressPreference  Kind = "EgressPreference"
)

// Violation is one property violation with its witness.
type Violation struct {
	Kind Kind `json:"kind"`
	// Node is where the violation manifests (the receiving external
	// neighbor, the internal router, or the PEC start).
	Node string `json:"node"`
	// Detail is a human-readable description.
	Detail string `json:"detail"`
	// Cond is the advertiser condition under which the violation occurs
	// (control-plane variables for routing properties, data-plane variables
	// for forwarding properties). A violation merged from duplicate
	// findings keeps its first finding's Cond, as it keeps its Prefix and
	// Path; only Originators aggregate. The value is a BDD handle, only
	// meaningful within the process that produced it — and, under the
	// parallel engine, only within the run (handle numbering depends on
	// scheduling), so it is excluded from the JSON wire format to keep
	// reports byte-identical across worker counts.
	Cond bdd.Node `json:"-"`
	// Prefix is a witness prefix when one is known.
	Prefix route.Prefix `json:"prefix"`
	// Path is the propagation or forwarding path of the witness.
	Path []string `json:"path,omitempty"`
	// Originators lists the external neighbors whose routes can trigger
	// the violation (aggregated across merged findings).
	Originators []string `json:"originators,omitempty"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s at %s: %s (path %s)", v.Kind, v.Node, v.Detail, strings.Join(v.Path, " -> "))
}

// CheckRouteLeak verifies RouteLeakFree (§6.1): no external neighbor may
// receive a route originated by another external neighbor. It reports one
// violation per receiving neighbor; the witness comes from the first leaked
// route, and every leaked route adds its originator.
func CheckRouteLeak(eng *epvp.Engine, cp *epvp.Result) []Violation {
	var f findings
	for _, ext := range eng.Net.Externals {
		detail := fmt.Sprintf("externally originated routes leaked to %s", ext)
		for _, r := range cp.ExternalRIB[ext] {
			if r.Originator == ext || eng.Net.IsInternal(r.Originator) {
				continue
			}
			f.add(Violation{Kind: RouteLeakFree, Node: ext, Detail: detail, Originators: []string{r.Originator}},
				routeWitness(eng, r))
		}
	}
	return f.sorted()
}

// CheckRouteHijack verifies RouteHijackFree (§6.1): no externally
// originated route may be selected as best for an internal prefix.
func CheckRouteHijack(eng *epvp.Engine, cp *epvp.Result) []Violation {
	internal := eng.Net.InternalPrefixes()
	// Union of all internal prefixes, to discard non-overlapping routes
	// with a single conjunction before the per-prefix scan.
	union := eng.Space.PrefixesBDD(internal)
	var cubes []bdd.Node // PrefixBDD of each internal prefix, built on first use
	var f findings
	for _, v := range eng.Net.Internals {
		for _, r := range cp.Best[v] {
			if eng.Net.IsInternal(r.Originator) {
				continue
			}
			hit := eng.Space.M.And(r.U, union)
			if hit == bdd.False {
				continue
			}
			if cubes == nil {
				cubes = make([]bdd.Node, len(internal))
				for i, d := range internal {
					cubes[i] = eng.Space.PrefixBDD(d)
				}
			}
			for i, d := range internal {
				overlap := eng.Space.M.And(hit, cubes[i])
				if overlap == bdd.False {
					continue
				}
				f.add(Violation{
					Kind: RouteHijackFree,
					Node: v,
					Detail: fmt.Sprintf("an external route can become best for internal prefix %s at %s",
						d, v),
					Prefix:      d,
					Path:        r.Path,
					Originators: []string{r.Originator},
				}, func(out *Violation) { out.Cond = eng.Space.Cond(overlap) })
			}
		}
	}
	return f.sorted()
}

// CheckBlockToExternal verifies Bagpipe's BlockToExternal property (§6.3):
// routes carrying the given community must never be exported to an
// external neighbor. Like CheckRouteLeak, it reports one violation per
// receiving neighbor, witnessed by the first offending route.
func CheckBlockToExternal(eng *epvp.Engine, cp *epvp.Result, bte route.Community) []Violation {
	atom := eng.Comm.Atoms.AtomOf(bte)
	hasBTE := eng.Comm.M.Var(atom)
	var f findings
	for _, ext := range eng.Net.Externals {
		detail := fmt.Sprintf("route carrying %s exported to %s", bte, ext)
		for _, r := range cp.ExternalRIB[ext] {
			if eng.Comm.M.And(r.Comm, hasBTE) == bdd.False {
				continue
			}
			f.add(Violation{Kind: BlockToExternal, Node: ext, Detail: detail}, routeWitness(eng, r))
		}
	}
	return f.sorted()
}

// routeWitness is the fill of a finding witnessed by route r: one prefix
// of r's route space, r's advertiser condition and r's path.
func routeWitness(eng *epvp.Engine, r *symbolic.Route) func(*Violation) {
	return func(v *Violation) {
		if assign := eng.Space.M.AnySat(r.U); assign != nil {
			v.Prefix = eng.Space.DecodePrefix(assign)
		}
		v.Cond = eng.Space.Cond(r.U)
		v.Path = r.Path
	}
}

// CheckTrafficHijack verifies TrafficHijackFree (§6.2): traffic destined to
// internal prefixes, observed at an internal router, must not exit to an
// external neighbor.
func CheckTrafficHijack(eng *epvp.Engine, dp *spf.Result) []Violation {
	internalDest := internalDestPredicate(eng, dp)
	var f findings
	for _, pec := range dp.PECs {
		if pec.Final != spf.Exit {
			continue
		}
		if !eng.Net.IsInternal(pec.Start()) {
			continue
		}
		overlap := eng.Space.M.And(pec.Pkt, internalDest)
		if overlap == bdd.False {
			continue
		}
		f.add(Violation{
			Kind: TrafficHijackFree,
			Node: pec.Start(),
			Detail: fmt.Sprintf("traffic to internal prefixes can exit to %s",
				pec.Path[len(pec.Path)-1]),
			Path: pec.Path,
		}, func(v *Violation) { v.Cond = dp.CondOfPkt(overlap) })
	}
	return f.sorted()
}

// CheckBlackHole verifies BlackHoleFree for traffic to the destinations in
// dests (a predicate over destination-address variables; use
// InternalDestPredicate for the internal prefixes, or bdd.True for all
// traffic): no matching PEC may end in BLACKHOLE.
func CheckBlackHole(eng *epvp.Engine, dp *spf.Result, dests bdd.Node) []Violation {
	var f findings
	for _, pec := range dp.PECs {
		if pec.Final != spf.BlackHole {
			continue
		}
		overlap := eng.Space.M.And(pec.Pkt, dests)
		if overlap == bdd.False {
			continue
		}
		f.add(Violation{
			Kind:   BlackHoleFree,
			Node:   pec.Path[len(pec.Path)-1],
			Detail: fmt.Sprintf("traffic to checked destinations dropped at %s", pec.Path[len(pec.Path)-1]),
			Path:   pec.Path,
		}, func(v *Violation) { v.Cond = dp.CondOfPkt(overlap) })
	}
	return f.sorted()
}

// CheckLoop verifies LoopFree: no PEC may end in LOOP.
func CheckLoop(eng *epvp.Engine, dp *spf.Result) []Violation {
	var f findings
	for _, pec := range dp.PECs {
		if pec.Final != spf.Loop {
			continue
		}
		f.add(Violation{
			Kind:   LoopFree,
			Node:   pec.Start(),
			Detail: "forwarding loop",
			Path:   pec.Path,
		}, func(v *Violation) { v.Cond = dp.CondOfPkt(pec.Pkt) })
	}
	return f.sorted()
}

// CheckEgressPreference verifies the §6.3 EgressPreference property: for
// traffic from router u to destination prefix d, the egress neighbor must
// follow the given preference order — no less-preferred egress may carry
// the traffic under an environment where a more-preferred neighbor is
// advertising. order lists neighbors most-preferred first.
func CheckEgressPreference(eng *epvp.Engine, dp *spf.Result, u string, d route.Prefix, order []string) []Violation {
	dest := dp.DestPredicate(d)
	conds := make([]bdd.Node, len(order))  // egress actually used
	avails := make([]bdd.Node, len(order)) // neighbor advertises something
	for i, egress := range order {
		c := bdd.False
		for _, pec := range dp.PECsFrom(u, egress) {
			if pec.Final != spf.Exit {
				continue
			}
			if overlap := eng.Space.M.And(pec.Pkt, dest); overlap != bdd.False {
				c = eng.Space.M.Or(c, dp.CondOfPkt(overlap))
			}
		}
		conds[i] = c
		avails[i] = dp.AvailPredicate(egress, d)
	}
	var f findings
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			bad := eng.Space.M.And(avails[i], conds[j])
			if bad == bdd.False {
				continue
			}
			f.add(Violation{
				Kind: EgressPreference,
				Node: u,
				Detail: fmt.Sprintf("traffic from %s to %s can use egress %s while preferred egress %s is available",
					u, d, order[j], order[i]),
				Cond:   bad,
				Prefix: d,
				Path:   []string{u, order[j]},
			}, nil)
		}
	}
	return f.sorted()
}

// InternalDestPredicate is the union of destination predicates of every
// internal prefix.
func InternalDestPredicate(eng *epvp.Engine, dp *spf.Result) bdd.Node {
	return internalDestPredicate(eng, dp)
}

// internalDestPredicate is the union of destination predicates of every
// internal prefix.
func internalDestPredicate(eng *epvp.Engine, dp *spf.Result) bdd.Node {
	n := bdd.False
	for _, p := range eng.Net.InternalPrefixes() {
		n = eng.Space.M.Or(n, dp.DestPredicate(p))
	}
	return n
}

// findings collects one check's violations, one per dedupe key: kind,
// node and detail. The first finding under a key becomes the reported
// violation and keeps its Cond, Prefix and Path; a later finding under the
// same key only merges its Originators into it. A check knows a finding's
// key before any BDD work, so it passes the expensive fields as fill,
// which runs only for the first finding per key: a neighbor that receives
// hundreds of leaked routes costs one witness, not hundreds.
type findings struct {
	seen map[string]int
	out  []Violation
}

// add records the finding v, calling fill (when non-nil) to complete it
// only if its key is new.
func (f *findings) add(v Violation, fill func(*Violation)) {
	k := string(v.Kind) + "|" + v.Node + "|" + v.Detail
	if i, ok := f.seen[k]; ok {
		prev := &f.out[i]
		prev.Originators = mergeNames(prev.Originators, v.Originators)
		return
	}
	if f.seen == nil {
		f.seen = map[string]int{}
	}
	f.seen[k] = len(f.out)
	if fill != nil {
		fill(&v)
	}
	f.out = append(f.out, v)
}

// sorted returns the collected violations in a deterministic order.
func (f *findings) sorted() []Violation {
	out := f.out
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

func mergeNames(a, b []string) []string {
	set := map[string]bool{}
	for _, s := range a {
		set[s] = true
	}
	for _, s := range b {
		set[s] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

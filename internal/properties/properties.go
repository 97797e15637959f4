// Package properties implements Expresso's property analysis (§6 of the
// paper): routing properties checked against symbolic RIBs
// (RouteLeakFree, RouteHijackFree, BlockToExternal) and forwarding
// properties checked against PECs (TrafficHijackFree, BlackHoleFree,
// LoopFree), listed in Table. EgressPreference takes a source, a
// destination and a preference order per query, which no stage supplies:
// callers use CheckEgressPreference, and Validate rejects a selection
// naming it.
package properties

import (
	"cmp"
	"fmt"
	"slices"
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

// Stage is the pipeline stage that runs a property: the routing analysis
// reads the converged RIBs, the forwarding analysis the PECs; None marks a
// library check no stage runs.
type Stage uint8

// Stages.
const (
	None Stage = iota
	Routing
	Forwarding
)

// Input is what a stage hands a check: the engine, its fixed point, the SPF
// result (the forwarding stage's only) and BlockToExternal's community.
type Input struct {
	Eng *epvp.Engine
	CP  *epvp.Result
	DP  *spf.Result
	BTE route.Community
}

// Property is one row of Table: a Kind, the short name accepted beside it,
// the stage that runs it, whether its check reads Input.BTE, whether an
// empty selection means it (the §7.1 set), and the check the stage calls —
// or, for a property no stage runs, the function to call instead.
type Property struct {
	Kind              Kind
	Name              string
	Stage             Stage
	NeedsBTE, Default bool
	Check             func(Input) []Violation
	Call              string
}

// Table is the property set: the routing stage's properties in the order it
// appends their violations, then the forwarding stage's, then the library
// checks. Name parsing, the defaults, the stage split, validation and the
// stage checks all read it.
var Table = []Property{
	{RouteLeakFree, "leak", Routing, false, true, func(in Input) []Violation { return CheckRouteLeak(in.Eng, in.CP) }, ""},
	{RouteHijackFree, "hijack", Routing, false, true, func(in Input) []Violation { return CheckRouteHijack(in.Eng, in.CP) }, ""},
	{BlockToExternal, "bte", Routing, true, false, func(in Input) []Violation { return CheckBlockToExternal(in.Eng, in.CP, in.BTE) }, ""},
	{TrafficHijackFree, "traffic", Forwarding, false, true, func(in Input) []Violation { return CheckTrafficHijack(in.Eng, in.DP) }, ""},
	{BlackHoleFree, "blackhole", Forwarding, false, false, func(in Input) []Violation {
		return CheckBlackHole(in.Eng, in.DP, internalDest(in.Eng, in.DP))
	}, ""},
	{LoopFree, "loop", Forwarding, false, false, func(in Input) []Violation { return CheckLoop(in.Eng, in.DP) }, ""},
	{EgressPreference, "egress", None, false, false, nil, "properties.CheckEgressPreference"},
}

// Lookup returns k's row.
func Lookup(k Kind) (Property, bool) {
	i := slices.IndexFunc(Table, func(p Property) bool { return p.Kind == k })
	if i < 0 {
		return Property{}, false
	}
	return Table[i], true
}

// Parse maps a short or canonical property name, surrounding space ignored,
// to its Kind.
func Parse(name string) (Kind, bool) {
	name = strings.TrimSpace(name)
	i := slices.IndexFunc(Table, func(p Property) bool { return name == p.Name || name == string(p.Kind) })
	if i < 0 {
		return "", false
	}
	return Table[i].Kind, true
}

// Select returns the kinds of the rows keep accepts, each once and in table
// order.
func Select(keep func(Property) bool) []Kind {
	var out []Kind
	for _, p := range Table {
		if keep(p) {
			out = append(out, p.Kind)
		}
	}
	return out
}

// Defaults returns the selection an empty one means.
func Defaults() []Kind { return Select(func(p Property) bool { return p.Default }) }

// NeedsBTE reports whether props holds a property that reads the BTE
// community.
func NeedsBTE(props []Kind) bool {
	return Select(func(p Property) bool { return p.NeedsBTE && slices.Contains(props, p.Kind) }) != nil
}

// Validate rejects a selection the stages cannot run in full — a Kind the
// table lacks, a property no stage runs, one that reads the BTE community
// when bte is zero — so no request passes having checked less than it named.
func Validate(props []Kind, bte route.Community) error {
	for _, k := range props {
		p, ok := Lookup(k)
		switch {
		case !ok:
			return fmt.Errorf("expresso: unknown property %q", k)
		case p.Stage == None:
			return fmt.Errorf("expresso: no verification stage checks %s; call %s with its parameters", k, p.Call)
		case p.NeedsBTE && bte == 0:
			return fmt.Errorf("expresso: %s requires Options.BTE", k)
		}
	}
	return nil
}

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
	leaked := func(ext string, r *symbolic.Route) bool {
		return r.Originator != ext && !eng.Net.IsInternal(r.Originator)
	}
	return exportFindings(eng, cp, leaked, func(ext string, r *symbolic.Route) Violation {
		return Violation{Kind: RouteLeakFree, Node: ext, Detail: "externally originated routes leaked to " + ext, Originators: []string{r.Originator}}
	})
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
	hasBTE := eng.Comm.M.Var(eng.Comm.Atoms.AtomOf(bte))
	tagged := func(_ string, r *symbolic.Route) bool { return eng.Comm.M.And(r.Comm, hasBTE) != bdd.False }
	return exportFindings(eng, cp, tagged, func(ext string, r *symbolic.Route) Violation {
		return Violation{Kind: BlockToExternal, Node: ext, Detail: fmt.Sprintf("route carrying %s exported to %s", bte, ext)}
	})
}

// exportFindings collects the findings of the routes match picks among
// those exported to external neighbors: the violation build makes of each,
// witnessed by one prefix of the route's space, its advertiser condition
// and its path.
func exportFindings(eng *epvp.Engine, cp *epvp.Result, match func(ext string, r *symbolic.Route) bool, build func(ext string, r *symbolic.Route) Violation) []Violation {
	var f findings
	for _, ext := range eng.Net.Externals {
		for _, r := range cp.ExternalRIB[ext] {
			if match(ext, r) {
				f.add(build(ext, r), func(v *Violation) {
					if assign := eng.Space.M.AnySat(r.U); assign != nil {
						v.Prefix = eng.Space.DecodePrefix(assign)
					}
					v.Cond = eng.Space.Cond(r.U)
					v.Path = r.Path
				})
			}
		}
	}
	return f.sorted()
}

// CheckTrafficHijack verifies TrafficHijackFree (§6.2): traffic destined to
// internal prefixes, observed at an internal router, must not exit to an
// external neighbor.
func CheckTrafficHijack(eng *epvp.Engine, dp *spf.Result) []Violation {
	exits := func(pec *spf.PEC) bool { return pec.Final == spf.Exit && eng.Net.IsInternal(pec.Start()) }
	return pecFindings(eng, dp, exits, internalDest(eng, dp), func(pec *spf.PEC) Violation {
		return Violation{Kind: TrafficHijackFree, Node: pec.Start(), Path: pec.Path,
			Detail: fmt.Sprintf("traffic to internal prefixes can exit to %s", pec.Path[len(pec.Path)-1])}
	})
}

// CheckBlackHole verifies BlackHoleFree for traffic to the destinations in
// dests (a predicate over destination-address variables; the forwarding
// stage passes the internal prefixes', bdd.True means all traffic): no
// matching PEC may end in BLACKHOLE.
func CheckBlackHole(eng *epvp.Engine, dp *spf.Result, dests bdd.Node) []Violation {
	drops := func(pec *spf.PEC) bool { return pec.Final == spf.BlackHole }
	return pecFindings(eng, dp, drops, dests, func(pec *spf.PEC) Violation {
		at := pec.Path[len(pec.Path)-1]
		return Violation{Kind: BlackHoleFree, Node: at, Detail: "traffic to checked destinations dropped at " + at, Path: pec.Path}
	})
}

// CheckLoop verifies LoopFree: no PEC may end in LOOP.
func CheckLoop(eng *epvp.Engine, dp *spf.Result) []Violation {
	loops := func(pec *spf.PEC) bool { return pec.Final == spf.Loop }
	return pecFindings(eng, dp, loops, bdd.True, func(pec *spf.PEC) Violation {
		return Violation{Kind: LoopFree, Node: pec.Start(), Detail: "forwarding loop", Path: pec.Path}
	})
}

// pecFindings collects the findings of the PECs match picks whose packets
// meet dests: the violation build makes of each, with the data-plane
// condition of its packets to dests.
func pecFindings(eng *epvp.Engine, dp *spf.Result, match func(*spf.PEC) bool, dests bdd.Node, build func(*spf.PEC) Violation) []Violation {
	var f findings
	for _, pec := range dp.PECs {
		if !match(pec) {
			continue
		}
		if overlap := eng.Space.M.And(pec.Pkt, dests); overlap != bdd.False {
			f.add(build(pec), func(v *Violation) { v.Cond = dp.CondOfPkt(overlap) })
		}
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

// internalDest is the union of destination predicates of every internal
// prefix: the traffic TrafficHijackFree and the stage's BlackHoleFree check.
func internalDest(eng *epvp.Engine, dp *spf.Result) bdd.Node {
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
		f.out[i].Originators = mergeNames(f.out[i].Originators, v.Originators)
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
	slices.SortFunc(f.out, func(a, b Violation) int {
		return cmp.Or(cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Node, b.Node), cmp.Compare(a.Detail, b.Detail))
	})
	return f.out
}

// mergeNames returns the sorted union of a and b.
func mergeNames(a, b []string) []string {
	out := append(slices.Clone(a), b...)
	slices.Sort(out)
	return slices.Compact(out)
}

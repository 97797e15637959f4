// Package spf implements Expresso's Symbolic Packet Forwarding stage (§5 of
// the paper): symbolic RIBs are compiled into symbolic FIBs whose advertiser
// conditions use one variable per (neighbor, prefix length) — capturing
// longest-prefix-match dependencies — and symbolic packets are pushed
// through the network to produce packet equivalence classes (PECs).
package spf

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/epvp"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/symbolic"
	"github.com/expresso-verify/expresso/internal/telemetry"
)

// FinalState is the terminal state of a symbolic packet (§5.2).
type FinalState uint8

// Final states.
const (
	Arrive FinalState = iota
	Exit
	BlackHole
	Loop
)

// String renders the state name as the paper prints it.
func (f FinalState) String() string {
	switch f {
	case Arrive:
		return "ARRIVE"
	case Exit:
		return "EXIT"
	case BlackHole:
		return "BLACKHOLE"
	default:
		return "LOOP"
	}
}

// PEC is a packet equivalence class: all packets (destination × data-plane
// advertiser condition) that follow the same forwarding path to the same
// final state.
type PEC struct {
	// Pkt is the predicate over destination-address variables and
	// data-plane advertiser variables.
	Pkt bdd.Node
	// Path is the node-level forwarding path, starting router first. For
	// packets injected from an external neighbor, the neighbor is the
	// first element.
	Path []string
	// Final is the packet's terminal state.
	Final FinalState
}

// Start returns the first hop of the PEC's path.
func (p *PEC) Start() string { return p.Path[0] }

// fibEntry is one symbolic forwarding rule.
type fibEntry struct {
	length int
	admin  int // administrative distance: lower wins within a length
	match  bdd.Node
	port   string // next-hop node; "" = deliver locally
}

// FIB is a router's symbolic forwarding state with per-port effective
// predicates (priority already applied).
type FIB struct {
	// PortPred maps a next-hop node to the predicate of packets forwarded
	// to it.
	PortPred map[string]bdd.Node
	// Arrive is the predicate of locally delivered packets.
	Arrive bdd.Node
	// BlackHole is the predicate of packets matching no rule.
	BlackHole bdd.Node
	// Entries is the number of symbolic FIB rules the router holds.
	Entries int

	// ports is PortPred's keys in sorted order, the order forward visits
	// them in.
	ports []string
}

// NewFIB assembles a FIB from its parts, as buildFIB and the artifact codec
// hold them.
func NewFIB(portPred map[string]bdd.Node, arrive, blackHole bdd.Node, entries int) *FIB {
	ports := make([]string, 0, len(portPred))
	for port := range portPred {
		ports = append(ports, port)
	}
	sort.Strings(ports)
	return &FIB{PortPred: portPred, Arrive: arrive, BlackHole: blackHole, Entries: entries, ports: ports}
}

// Ports returns the FIB's next hops in sorted order. The slice is shared;
// callers must not modify it.
func (f *FIB) Ports() []string { return f.ports }

// Result is the output of the SPF stage.
type Result struct {
	FIBs map[string]*FIB
	PECs []*PEC
	// DataVarsPerNeighbor reports how many per-length advertiser variables
	// each neighbor needed (the §5.1 statistic: ≤32, 8-11 on average in the
	// paper's datasets).
	DataVarsPerNeighbor map[string]int

	eng *epvp.Engine

	// ctx, trace and varsUsed are the run's request state: its
	// cancellation, its tracer, and the data-plane variables its FIBs
	// reference (guarded by varsMu), which DataVarsPerNeighbor counts.
	// RunTraced drops them before it returns, so a cached result keeps no
	// finished job's state.
	ctx      context.Context
	trace    *telemetry.Tracer
	varsMu   sync.Mutex
	varsUsed map[int]bool

	// converted and reused count the run's conversions — one per (router,
	// next hop) union of U, plus AvailPredicate's per-candidate ones — by
	// where they came from: computed here, or found in the manager's memo
	// (symbolic.Space.Converted), filled by this run or an earlier one.
	converted, reused atomic.Int64
}

// VarBase reports the first data-plane advertiser variable index of the
// result (symbolic.Space.DataBase). The artifact store records it and
// refuses a persisted result whose recorded base is not the importing
// manager's.
func (r *Result) VarBase() int { return r.eng.Space.DataBase() }

// Rehydrate reconstructs a Result around an engine from the FIBs, PECs and
// per-neighbor variable statistics the artifact store decoded, every BDD
// handle already imported into eng's manager: usable by the forwarding
// checks exactly like one produced by RunTraced.
func Rehydrate(eng *epvp.Engine, fibs map[string]*FIB, pecs []*PEC, dataVars map[string]int) *Result {
	return &Result{
		FIBs:                fibs,
		PECs:                pecs,
		DataVarsPerNeighbor: dataVars,
		eng:                 eng,
	}
}

// Nodes returns every BDD handle the result keeps alive: each FIB's
// per-port, arrival, and black-hole predicates and each PEC's packet set.
// The pipeline pins these so cached SPF artifacts survive dead-node
// reclamation triggered by later runs in the same manager. The manager's
// conversion memo is deliberately excluded — it is acceleration state,
// rebuilt on demand and dropped when the manager's generation moves.
func (r *Result) Nodes() []bdd.Node {
	var out []bdd.Node
	for _, f := range r.FIBs {
		out = append(out, f.Arrive, f.BlackHole)
		for _, p := range f.PortPred {
			out = append(out, p)
		}
	}
	for _, p := range r.PECs {
		out = append(out, p.Pkt)
	}
	return out
}

// Run executes symbolic packet forwarding over an EPVP result.
func Run(eng *epvp.Engine, cp *epvp.Result) *Result {
	r, _ := RunTraced(context.Background(), eng, cp, nil)
	return r
}

// RunTraced executes symbolic packet forwarding, checking ctx between FIB
// compilations and between packet-traversal steps so a cancelled or expired
// context aborts the stage promptly; on cancellation it returns a nil
// Result and ctx.Err(). A run-scoped tracer records one
// telemetry.FIBEvent per router's FIB compilation, one ForwardEvent per
// injection point's traversal, and the PEC-coalescing pass sizes; a nil
// tracer is the zero-overhead disabled path.
func RunTraced(ctx context.Context, eng *epvp.Engine, cp *epvp.Result, tr *telemetry.Tracer) (*Result, error) {
	r := &Result{
		FIBs:                map[string]*FIB{},
		DataVarsPerNeighbor: map[string]int{},
		eng:                 eng,
		ctx:                 ctx,
		trace:               tr,
		varsUsed:            map[int]bool{},
	}
	// The n_i^l block (§5.1) goes below the control-plane variables, the
	// variables of one prefix length adjacent. A FIB port predicate is a
	// chain of per-length decisions that stay apart, one chain per address
	// class, until the length where the policies discriminate, and merge
	// below it; which side of that length the bulk of the 33 blocks falls
	// on decides the size of everything SPF builds (region-4, the kept
	// FIB ∪ PEC DAG: 7.7M nodes shortest length first, 2.4M longest first,
	// 0.7M ranked — see DESIGN.md), and foldFIB runs in the direction this
	// order makes cheap. A manager serving several runs keeps the block of
	// its first.
	_, lengths := eng.Space.DataBlock(func() []int { return RankLengths(eng, cp) })
	// Both phases fan out on views over the manager's kept workers (private
	// BDD op caches over the shared node table), the ones EPVP ran on, so a
	// delta reuses what its baseline's runs cached.
	pool := epvp.Pool[*symbolic.Space](eng.Space.Workers(eng.WorkerCount()))

	// FIB compilation is independent per router (it reads only that
	// router's converged RIB), so it fans out across the worker pool; the
	// reduction below assembles the map in router order.
	internals := eng.Net.Internals
	fibs := make([]*FIB, len(internals))
	err := pool.Each(ctx, len(internals), func(sp *symbolic.Space, i int) {
		start := time.Time{}
		if r.trace.Enabled() {
			start = time.Now()
		}
		fibs[i] = r.buildFIB(sp, internals[i], cp.Best[internals[i]])
		if r.trace.Enabled() {
			r.trace.FIB(telemetry.FIBEvent{
				Router:   internals[i],
				Entries:  fibs[i].Entries,
				Ports:    len(fibs[i].PortPred),
				Duration: time.Since(start).Nanoseconds(),
			})
		}
	})
	if err != nil {
		return nil, err
	}
	for i, v := range internals {
		r.FIBs[v] = fibs[i]
	}

	if err := r.forwardAll(pool); err != nil {
		return nil, err
	}
	for v := range r.varsUsed {
		r.DataVarsPerNeighbor[eng.Net.Externals[eng.Space.DataNeighbor(v)]]++
	}
	if r.trace.Enabled() {
		r.trace.SPFOrder(telemetry.SPFOrderEvent{
			Lengths: lengths, VarsUsed: len(r.varsUsed),
			Converted: r.converted.Load(), Reused: r.reused.Load(),
		})
	}
	// SPF builds the run's largest node population (33 data-plane vars per
	// neighbor layered onto the control plane), and forwardAll's barrier
	// just made this point quiescent — the watermark's highest-value
	// sample. Always on: two atomics.
	eng.Space.M.NoteWatermark()
	r.ctx, r.trace, r.varsUsed = nil, nil, nil
	return r, nil
}

// RankLengths orders the data-plane block for a manager's first SPF run:
// prefix lengths by how many distinct per-length slices the converged RIB's
// U sets have, most first, ties longest first. The count is how many
// different conditions the policies attach at that length, so the lengths
// they discriminate at go to the top of the block and every other length's
// chain is shared below them (region-4: 259 slices at /24, 225 at /31, 215
// at every other length; /24 topmost cuts the kept DAG 2.4M → 0.7M nodes
// against plain longest-first). Slices are counted as length cofactors
// (symbolic.Space.LengthCofactor), which stand for them one for one and,
// under the initial order, are found without building a node. A function
// of the SRC result alone.
func RankLengths(eng *epvp.Engine, cp *epvp.Result) []int {
	counts := sliceCounts(eng, cp)
	lengths := symbolic.LongestFirst()
	sort.SliceStable(lengths, func(i, j int) bool {
		return counts[lengths[i]] > counts[lengths[j]]
	})
	return lengths
}

// sliceCounts counts, per prefix length, the distinct non-empty slices of
// the converged RIB's route sets.
func sliceCounts(eng *epvp.Engine, cp *epvp.Result) (counts [symbolic.AddrBits + 1]int) {
	sp := eng.Space
	var distinct [symbolic.AddrBits + 1]map[bdd.Node]bool
	for l := range distinct {
		distinct[l] = map[bdd.Node]bool{}
	}
	seen := map[bdd.Node]bool{}
	for _, v := range eng.Net.Internals {
		for _, sr := range cp.Best[v] {
			if seen[sr.U] {
				continue
			}
			seen[sr.U] = true
			for l := range distinct {
				if c := sp.LengthCofactor(sr.U, l); c != bdd.False {
					distinct[l][c] = true
				}
			}
		}
	}
	for l := range distinct {
		counts[l] = len(distinct[l])
	}
	return counts
}

// DataVar exposes the n_i^l variable for property checks and tests.
func (r *Result) DataVar(neighbor string, length int) int {
	return r.eng.Space.DataVar(r.eng.Net.ExternalIndex[neighbor], length)
}

// convertU compiles a prefix-environment set into per-length data-plane
// match predicates (§5.1), memoized on the U handle in the manager's data
// block. The sets FIBs convert are unions, one per (router, next hop), so a
// delta against a pinned baseline finds the unions its change did not
// reach converted by the baseline's own run.
func (r *Result) convertU(sp *symbolic.Space, u bdd.Node) symbolic.Conversion {
	c, ok := sp.Converted(u)
	if ok {
		r.reused.Add(1)
	} else {
		r.converted.Add(1)
		c = convert(sp, u)
		sp.RememberConversion(u, c)
	}
	return c
}

// convert is convertU's computation: for each prefix length, one
// bdd.Worker.Convert pass selects that length's prefixes, drops their host
// and length bits, and renames each control-plane advertiser variable n_i
// to n_i^l, reporting the n_i^l the match kept. A length u does not hold
// converts to False; under the initial order, whose length bits sit on
// top, that costs only the walk down them.
func convert(sp *symbolic.Space, u bdd.Node) symbolic.Conversion {
	var c symbolic.Conversion
	for l := 0; l <= symbolic.AddrBits; l++ {
		match, vars := sp.W.Convert(u, symbolic.LengthSlice(l), sp.PerLengthRename(l))
		if match != bdd.False {
			c.Matches = append(c.Matches, symbolic.LengthMatch{Length: l, Match: match})
			c.Vars = append(c.Vars, vars...)
		}
	}
	return c
}

// buildFIB assembles the router's symbolic FIB from its BGP RIB plus static
// and connected routes, then computes effective per-port predicates under
// longest-prefix-match and administrative-distance priority. The BGP rules
// come from one union of U per next hop: slicing by length and renaming
// are Boolean homomorphisms, so converting the union is converting each
// route and unioning the results, and a length's rules need no per-port
// chain. Entries still counts one rule per route and length.
func (r *Result) buildFIB(sp *symbolic.Space, v string, rib []*symbolic.Route) *FIB {
	d := r.eng.Net.Devices[v]
	byHop := map[string][]bdd.Node{}
	var hops []string
	rules := len(d.Statics) + len(d.Interfaces)
	for _, sr := range rib {
		if _, ok := byHop[sr.NextHop]; !ok {
			hops = append(hops, sr.NextHop)
		}
		byHop[sr.NextHop] = append(byHop[sr.NextHop], sr.U)
		rules += len(sp.Lengths(sr.U))
	}
	var entries []fibEntry
	for _, hop := range hops {
		conv := r.convertU(sp, symbolic.OrBalanced(sp.W, byHop[hop]))
		for _, c := range conv.Matches {
			entries = append(entries, fibEntry{length: c.Length, admin: route.ProtoBGP.AdminDistance(), match: c.Match, port: hop})
		}
		r.varsMu.Lock()
		for _, dv := range conv.Vars {
			r.varsUsed[dv] = true
		}
		r.varsMu.Unlock()
	}
	for _, st := range d.Statics {
		entries = append(entries, fibEntry{
			length: int(st.Prefix.Len),
			admin:  route.ProtoStatic.AdminDistance(),
			match:  sp.DestBDD(st.Prefix),
			port:   st.NextHop,
		})
	}
	for _, itf := range d.Interfaces {
		entries = append(entries, fibEntry{
			length: int(itf.Prefix.Len),
			admin:  route.ProtoConnected.AdminDistance(),
			match:  sp.DestBDD(itf.Prefix),
			port:   "", // deliver locally
		})
	}
	fib := foldFIB(sp.W, entries)
	fib.Entries = rules
	return fib
}

// fibGroup is a run of consecutive priority groups folded into one: the
// packets each next hop takes ("" delivering locally), and the packets the
// run decides.
type fibGroup struct {
	pred  map[string]bdd.Node
	union bdd.Node
}

// foldFIB applies longest-prefix-match and administrative-distance priority
// to a rule list: longer prefix first, lower admin distance first within a
// length; rules tied on both (ECMP) share priority and do not shadow each
// other. Each priority group takes its packets away from every group below
// it; foldGroups applies that rule in a balanced tree over the groups,
// lowest priority first.
func foldFIB(w *bdd.Worker, entries []fibEntry) *FIB {
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].length != entries[j].length {
			return entries[i].length < entries[j].length
		}
		return entries[i].admin > entries[j].admin
	})
	var groups []fibGroup
	for i := 0; i < len(entries); {
		g := fibGroup{pred: map[string]bdd.Node{}}
		var matches []bdd.Node
		j := i
		for ; j < len(entries) && entries[j].length == entries[i].length && entries[j].admin == entries[i].admin; j++ {
			g.pred[entries[j].port] = w.Or(g.pred[entries[j].port], entries[j].match)
			matches = append(matches, entries[j].match)
		}
		g.union = symbolic.OrBalanced(w, matches)
		groups = append(groups, g)
		i = j
	}
	all := fibGroup{pred: map[string]bdd.Node{}, union: bdd.False}
	if len(groups) > 0 {
		all = foldGroups(w, groups)
	}
	arrive := all.pred[""]
	delete(all.pred, "")
	for port, p := range all.pred {
		if p == bdd.False {
			delete(all.pred, port)
		}
	}
	return NewFIB(all.pred, arrive, w.Not(all.union), len(entries))
}

// foldGroups folds priority groups, lowest first, into one: the upper
// half's union U_hi takes its packets from the lower half,
//
//	P_port = ITE(U_hi, P_hi[port], P_lo[port])   or Diff(P_lo[port], U_hi) for a port only below,
//
// which is the bottom-up rule applied pairwise, so no operand is the
// running fold of everything below it. Bottom-up because that is the
// direction the data-plane block order makes cheap: but for the few
// lengths RankLengths hoists, an upper group's variables sit above those of
// the groups below it, so a step only adds nodes on top of what stands.
// Folding from the highest priority down (match ∧ ¬covered) is the same
// function and rebuilds everything above the current block at every step
// (region-4 FIBs, nodes created by the linear fold: longest-first block
// 21.2M down / 2.0M up, ranked 4.9M / 1.7M, and under the old
// shortest-first block 4.1M down / 21.1M up; DESIGN.md §5g has the
// balanced fold's). The groups' maps are reused for the result.
func foldGroups(w *bdd.Worker, gs []fibGroup) fibGroup {
	if len(gs) == 1 {
		return gs[0]
	}
	h := len(gs) / 2
	lo, hi := foldGroups(w, gs[:h]), foldGroups(w, gs[h:])
	for port, p := range hi.pred {
		hi.pred[port] = w.ITE(hi.union, p, lo.pred[port])
	}
	for port, p := range lo.pred {
		if _, ok := hi.pred[port]; !ok {
			hi.pred[port] = w.Diff(p, hi.union)
		}
	}
	return fibGroup{pred: hi.pred, union: w.Or(hi.union, lo.union)}
}

// DestPredicate is the packet-destination predicate of a concrete prefix,
// for property checks.
func (r *Result) DestPredicate(p route.Prefix) bdd.Node {
	return r.eng.Space.DestBDD(p)
}

// forwardAll injects a fully symbolic packet at every node (internal and
// external) and collects PECs. Packets entering from an external neighbor
// traverse exactly the tree of its first internal hop (the model applies no
// ingress filtering), so external injections are derived from the internal
// ones by prepending the neighbor to the path instead of re-exploring.
func (r *Result) forwardAll(pool epvp.Pool[*symbolic.Space]) error {
	// Each injection point's traversal only reads the (now immutable) FIBs,
	// so start nodes fan out across the pool; per-start PEC slices are
	// concatenated in injection order, and coalescePECs sorts by path, so
	// the final list is independent of scheduling.
	internals := r.eng.Net.Internals
	perStart := make([][]*PEC, len(internals))
	err := pool.Each(r.ctx, len(internals), func(sp *symbolic.Space, i int) {
		start := time.Time{}
		if r.trace.Enabled() {
			start = time.Now()
		}
		var out []*PEC
		r.forward(sp, internals[i], bdd.True, []string{internals[i]}, &out)
		perStart[i] = out
		if r.trace.Enabled() {
			r.trace.Forward(telemetry.ForwardEvent{
				Router:   internals[i],
				PECs:     len(out),
				Duration: time.Since(start).Nanoseconds(),
			})
		}
	})
	if err != nil {
		return err
	}
	for _, out := range perStart {
		r.PECs = append(r.PECs, out...)
	}
	raw := len(r.PECs)
	r.coalescePECs()
	if r.trace.Enabled() {
		r.trace.Coalesce(telemetry.CoalesceEvent{Phase: "internal", Raw: raw, Coalesced: len(r.PECs)})
	}
	byStart := map[string][]*PEC{}
	for _, pec := range r.PECs {
		byStart[pec.Start()] = append(byStart[pec.Start()], pec)
	}
	for _, e := range r.eng.Net.Externals {
		for _, u := range r.eng.Net.Neighbors(e) {
			for _, pec := range byStart[u] {
				r.PECs = append(r.PECs, &PEC{
					Pkt:   pec.Pkt,
					Path:  append([]string{e}, pec.Path...),
					Final: pec.Final,
				})
			}
		}
	}
	// Deterministic order, merge identical (path, final) classes.
	raw = len(r.PECs)
	r.coalescePECs()
	if r.trace.Enabled() {
		r.trace.Coalesce(telemetry.CoalesceEvent{Phase: "external", Raw: raw, Coalesced: len(r.PECs)})
	}
	return nil
}

func (r *Result) forward(sp *symbolic.Space, v string, pkt bdd.Node, path []string, out *[]*PEC) {
	fib := r.FIBs[v]
	if pkt == bdd.False || r.ctx.Err() != nil {
		return
	}
	if p := sp.W.And(pkt, fib.Arrive); p != bdd.False {
		*out = append(*out, &PEC{Pkt: p, Path: append([]string(nil), path...), Final: Arrive})
	}
	if p := sp.W.And(pkt, fib.BlackHole); p != bdd.False {
		*out = append(*out, &PEC{Pkt: p, Path: append([]string(nil), path...), Final: BlackHole})
	}
	for _, port := range fib.ports {
		p := sp.W.And(pkt, fib.PortPred[port])
		if p == bdd.False {
			continue
		}
		next := append(append([]string(nil), path...), port)
		if !r.eng.Net.IsInternal(port) {
			*out = append(*out, &PEC{Pkt: p, Path: next, Final: Exit})
			continue
		}
		if onPath(path, port) {
			*out = append(*out, &PEC{Pkt: p, Path: next, Final: Loop})
			continue
		}
		r.forward(sp, port, p, next, out)
	}
}

func onPath(path []string, node string) bool {
	for _, h := range path {
		if h == node {
			return true
		}
	}
	return false
}

// pathKey encodes a node path unambiguously by length-prefixing each hop:
// a plain strings.Join with a delimiter would merge distinct paths whenever
// a node name contains the delimiter.
func pathKey(path []string) string {
	var sb strings.Builder
	for _, h := range path {
		sb.WriteString(strconv.Itoa(len(h)))
		sb.WriteByte(':')
		sb.WriteString(h)
	}
	return sb.String()
}

func (r *Result) coalescePECs() {
	type key struct {
		path  string
		final FinalState
	}
	merged := map[key]*PEC{}
	var order []key
	for _, pec := range r.PECs {
		k := key{pathKey(pec.Path), pec.Final}
		if ex, ok := merged[k]; ok {
			ex.Pkt = r.eng.Space.W.Or(ex.Pkt, pec.Pkt)
		} else {
			merged[k] = &PEC{Pkt: pec.Pkt, Path: pec.Path, Final: pec.Final}
			order = append(order, k)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].path != order[j].path {
			return order[i].path < order[j].path
		}
		return order[i].final < order[j].final
	})
	out := make([]*PEC, 0, len(order))
	for _, k := range order {
		out = append(out, merged[k])
	}
	r.PECs = out
}

// PECsFrom returns the PECs whose path starts at node u (the paper's
// PECs(u)); with to != "", only those ending at to (PECs(u, to)).
func (r *Result) PECsFrom(u, to string) []*PEC {
	var out []*PEC
	for _, p := range r.PECs {
		if p.Start() != u {
			continue
		}
		if to != "" && p.Path[len(p.Path)-1] != to {
			continue
		}
		out = append(out, p)
	}
	return out
}

// AvailPredicate returns the data-plane condition under which external
// neighbor ext has advertised a route, acceptable to some adjacent internal
// router's import policy, that covers destination prefix dest (either a
// covering aggregate or a more specific route inside dest). Used as the
// "preferred egress is available" side of EgressPreference.
func (r *Result) AvailPredicate(ext string, dest route.Prefix) bdd.Node {
	s := r.eng.Space
	destPkt := s.DestBDD(dest)
	avail := bdd.False
	for _, u := range r.eng.Net.Neighbors(ext) {
		for _, cand := range r.eng.ImportCandidates(u, ext) {
			for _, c := range r.convertU(s, cand.U).Matches {
				if overlap := s.M.And(c.Match, destPkt); overlap != bdd.False {
					avail = s.M.Or(avail, r.CondOfPkt(overlap))
				}
			}
		}
	}
	return avail
}

// CondOfPkt extracts the data-plane advertiser condition from a packet
// predicate by quantifying out the destination-address bits (the paper's
// Cond() applied to PECs).
func (r *Result) CondOfPkt(pkt bdd.Node) bdd.Node {
	vars := make([]int, symbolic.AddrBits)
	for i := range vars {
		vars[i] = i
	}
	return r.eng.Space.M.Exists(pkt, vars...)
}

// String renders a PEC like the paper: (predicate, [path], STATE).
func (p *PEC) String() string {
	return fmt.Sprintf("(pkt#%d, [%s], %s)", p.Pkt, strings.Join(p.Path, " "), p.Final)
}

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
}

// Result is the output of the SPF stage.
type Result struct {
	FIBs map[string]*FIB
	PECs []*PEC
	// DataVarsPerNeighbor reports how many per-length advertiser variables
	// each neighbor needed (the §5.1 statistic: ≤32, 8-11 on average in the
	// paper's datasets).
	DataVarsPerNeighbor map[string]int

	eng     *epvp.Engine
	ctx     context.Context
	trace   *telemetry.Tracer
	varBase int

	varsMu   sync.Mutex
	varsUsed map[int]bool // data-plane variables actually referenced

	// convCache memoizes RIB-entry conversion by the route's U handle: a
	// route's prefix-environment set is typically unchanged as it
	// propagates, so the same U appears in many routers' RIBs. Guarded by
	// convMu: conversions are pure functions of U, so a duplicated
	// computation by two racing workers is wasted work, never wrong.
	// convGen is the manager reclamation generation the cache was built
	// under; a dead-node sweep between uses (warm runs in a shared manager)
	// may recycle handle numbers, so a stale cache is flushed rather than
	// trusted.
	convMu    sync.Mutex
	convGen   uint64
	convCache map[bdd.Node][]convEntry
}

// Nodes returns every BDD handle the result keeps alive: each FIB's
// per-port, arrival, and black-hole predicates and each PEC's packet set.
// The pipeline pins these so cached SPF artifacts survive dead-node
// reclamation triggered by later runs in the same manager. The conversion
// cache is deliberately excluded — it is acceleration state, rebuilt on
// demand and flushed when the manager's reclaim generation moves.
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

// convEntry is a converted per-length match predicate, port-independent.
type convEntry struct {
	length int
	match  bdd.Node
}

// Run executes symbolic packet forwarding over an EPVP result.
func Run(eng *epvp.Engine, cp *epvp.Result) *Result {
	r, _ := RunContext(context.Background(), eng, cp)
	return r
}

// RunContext executes symbolic packet forwarding, checking ctx between FIB
// compilations and between packet-traversal steps so a cancelled or expired
// context aborts the stage promptly. On cancellation it returns a nil
// Result and ctx.Err().
func RunContext(ctx context.Context, eng *epvp.Engine, cp *epvp.Result) (*Result, error) {
	return RunTraced(ctx, eng, cp, nil)
}

// RunTraced is RunContext with a run-scoped tracer attached: it records
// one telemetry.FIBEvent per router's FIB compilation, one ForwardEvent
// per injection point's traversal, and the PEC-coalescing pass sizes. A
// nil tracer is the zero-overhead disabled path (RunContext delegates
// here with nil).
func RunTraced(ctx context.Context, eng *epvp.Engine, cp *epvp.Result, tr *telemetry.Tracer) (*Result, error) {
	r := &Result{
		FIBs:                map[string]*FIB{},
		DataVarsPerNeighbor: map[string]int{},
		eng:                 eng,
		ctx:                 ctx,
		trace:               tr,
		varsUsed:            map[int]bool{},
		convCache:           map[bdd.Node][]convEntry{},
	}
	// Pre-allocate every n_i^l variable in length-major order so that the
	// variables of different neighbors at the same prefix length are
	// adjacent in the BDD ordering. FIB predicates union terms of the form
	// (conditions over same-length variables) across lengths; a
	// neighbor-major order would make those unions exponential.
	n := len(eng.Net.Externals)
	r.varBase = eng.Space.M.AddVars(33 * n)
	workers := eng.WorkerCount()

	// FIB compilation is independent per router (it reads only that
	// router's converged RIB), so it fans out across the worker pool; the
	// reduction below assembles the map in router order.
	internals := eng.Net.Internals
	fibs := make([]*FIB, len(internals))
	err := r.each(workers, len(internals), func(sp *symbolic.Space, i int) {
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

	if err := r.forwardAll(workers); err != nil {
		return nil, err
	}
	for v := range r.varsUsed {
		i := (v - r.varBase) % n
		r.DataVarsPerNeighbor[eng.Net.Externals[i]]++
	}
	// SPF builds the run's largest node population (33 data-plane vars per
	// neighbor layered onto the control plane), and forwardAll's barrier
	// just made this point quiescent — the watermark's highest-value
	// sample. Always on: two atomics.
	eng.Space.M.NoteWatermark()
	return r, nil
}

// each runs fn for indices 0..n-1 on up to workers goroutines, each with a
// forked symbolic space (private BDD op caches over the shared node table).
// With workers <= 1 it runs inline on the engine's own space — the
// sequential reference path. Returns the context's error if cancelled.
func (r *Result) each(workers, n int, fn func(sp *symbolic.Space, i int)) error {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := r.ctx.Err(); err != nil {
				return err
			}
			fn(r.eng.Space, i)
		}
		return nil
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	var cursor atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		sp := r.eng.Space.Fork()
		go func(sp *symbolic.Space) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n || r.ctx.Err() != nil {
					return
				}
				fn(sp, i)
			}
		}(sp)
	}
	wg.Wait()
	return r.ctx.Err()
}

// dataVar returns the data-plane advertiser variable n_i^l for neighbor
// index i and prefix length l.
func (r *Result) dataVar(i, l int) int {
	return r.varBase + l*len(r.eng.Net.Externals) + i
}

// DataVar exposes the n_i^l variable for property checks and tests.
func (r *Result) DataVar(neighbor string, length int) int {
	return r.dataVar(r.eng.Net.ExternalIndex[neighbor], length)
}

// convertRoute compiles one symbolic RIB entry into per-length FIB entries
// (§5.1): split U by prefix length, free the host and length bits, and
// rename each control-plane advertiser variable n_i to n_i^l.
func (r *Result) convertRoute(sp *symbolic.Space, sr *symbolic.Route) []fibEntry {
	conv := r.convertU(sp, sr.U)
	out := make([]fibEntry, len(conv))
	for i, c := range conv {
		out[i] = fibEntry{length: c.length, admin: route.ProtoBGP.AdminDistance(), match: c.match, port: sr.NextHop}
	}
	return out
}

// convertU compiles a prefix-environment set into per-length data-plane
// match predicates, memoized on the U handle.
func (r *Result) convertU(sp *symbolic.Space, u bdd.Node) []convEntry {
	r.convMu.Lock()
	if g := r.eng.Space.M.Gen(); g != r.convGen {
		r.convGen = g
		r.convCache = map[bdd.Node][]convEntry{}
	}
	cached, ok := r.convCache[u]
	r.convMu.Unlock()
	if ok {
		return cached
	}
	s := sp
	var out []convEntry
	for _, l := range s.Lengths(u) {
		// Select length l and drop the host address bits (zero in
		// canonical form) in one linear restriction pass.
		values := map[int]bool{}
		for b := 0; b < symbolic.LenBits; b++ {
			values[symbolic.AddrBits+b] = l&(1<<(symbolic.LenBits-1-b)) != 0
		}
		for b := l; b < symbolic.AddrBits; b++ {
			values[b] = false
		}
		m := s.M.RestrictMany(u, values)
		if m == bdd.False {
			continue
		}
		// Rename control-plane advertiser variables to per-length ones.
		// Under the initial order the data-plane variables for one length
		// preserve the neighbor ordering and sit below every control
		// variable, so the rename is a linear pass; after dynamic
		// reordering the relative levels may be anything, so RenameAny
		// checks and falls back to a general rebuild when needed.
		mapping := map[int]int{}
		for _, cv := range s.M.Support(m) {
			if cv >= symbolic.FirstNbrVar && cv < r.varBase {
				i := cv - symbolic.FirstNbrVar
				dv := r.dataVar(i, l)
				mapping[cv] = dv
				r.varsMu.Lock()
				r.varsUsed[dv] = true
				r.varsMu.Unlock()
			}
		}
		if len(mapping) > 0 {
			m = s.M.RenameAny(m, mapping)
		}
		out = append(out, convEntry{length: l, match: m})
	}
	r.convMu.Lock()
	r.convCache[u] = out
	r.convMu.Unlock()
	return out
}

// buildFIB assembles the router's symbolic FIB from its BGP RIB plus static
// and connected routes, then computes effective per-port predicates under
// longest-prefix-match and administrative-distance priority.
func (r *Result) buildFIB(sp *symbolic.Space, v string, rib []*symbolic.Route) *FIB {
	s := sp
	d := r.eng.Net.Devices[v]
	var entries []fibEntry
	for _, sr := range rib {
		entries = append(entries, r.convertRoute(sp, sr)...)
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
	// Priority: longer prefix first; lower admin distance first within a
	// length. Ties (ECMP) share priority and do not shadow each other.
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].length != entries[j].length {
			return entries[i].length > entries[j].length
		}
		return entries[i].admin < entries[j].admin
	})
	fib := &FIB{PortPred: map[string]bdd.Node{}, Arrive: bdd.False, Entries: len(entries)}
	covered := bdd.False
	i := 0
	for i < len(entries) {
		j := i
		for j < len(entries) && entries[j].length == entries[i].length && entries[j].admin == entries[i].admin {
			j++
		}
		// Union the group's matches per port first, then subtract the
		// higher-priority coverage once per port (not once per entry).
		perPort := map[string]bdd.Node{}
		var order []string
		for k := i; k < j; k++ {
			if _, ok := perPort[entries[k].port]; !ok {
				order = append(order, entries[k].port)
			}
			perPort[entries[k].port] = s.W.Or(perPort[entries[k].port], entries[k].match)
		}
		groupUnion := bdd.False
		for _, port := range order {
			match := perPort[port]
			groupUnion = s.W.Or(groupUnion, match)
			eff := s.W.Diff(match, covered)
			if eff == bdd.False {
				continue
			}
			if port == "" {
				fib.Arrive = s.W.Or(fib.Arrive, eff)
			} else {
				fib.PortPred[port] = s.W.Or(fib.PortPred[port], eff)
			}
		}
		covered = s.W.Or(covered, groupUnion)
		i = j
	}
	fib.BlackHole = s.W.Not(covered)
	return fib
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
func (r *Result) forwardAll(workers int) error {
	// Each injection point's traversal only reads the (now immutable) FIBs,
	// so start nodes fan out across the pool; per-start PEC slices are
	// concatenated in injection order, and coalescePECs sorts by path, so
	// the final list is independent of scheduling.
	internals := r.eng.Net.Internals
	perStart := make([][]*PEC, len(internals))
	err := r.each(workers, len(internals), func(sp *symbolic.Space, i int) {
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
	ports := make([]string, 0, len(fib.PortPred))
	for port := range fib.PortPred {
		ports = append(ports, port)
	}
	sort.Strings(ports)
	for _, port := range ports {
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
			for _, entry := range r.convertRoute(s, cand) {
				if overlap := s.M.And(entry.match, destPkt); overlap != bdd.False {
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

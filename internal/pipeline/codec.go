// Artifact codecs for the persistent store tier: binary encode/decode of
// the SRC, analysis, and SPF stage artifacts. The codecs live in this
// package (not internal/store) because only the pipeline knows the
// artifact shapes and owns the engine reconstruction on the decode path;
// the store itself moves opaque framed bytes.
//
// The decode paths re-canonicalize every BDD node through the target
// manager's hash-consing constructor (bdd.Import) and rebuild automata
// through minimization, so a decoded artifact is indistinguishable from a
// computed one — the disk-warm determinism tests pin byte-identical
// reports against cold runs. Decoding is total: malformed bytes return an
// error, which callers treat as a store miss. The field encoding is
// internal/wire's; a decoder here is straight-line reads, its own range
// checks (d.Failf), and one error check where a section ends.
package pipeline

import (
	"sort"
	"sync"

	"github.com/expresso-verify/expresso/internal/automaton"
	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/epvp"
	"github.com/expresso-verify/expresso/internal/properties"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/spf"
	"github.com/expresso-verify/expresso/internal/symbolic"
	"github.com/expresso-verify/expresso/internal/wire"
)

// Payload magics and version. The store's envelope already carries a CRC
// and a framing version; this version tracks the artifact schemas, so a
// schema change reads as a decode error (= miss) for older blobs.
const (
	srcMagic      = "XSRC"
	analysisMagic = "XANL"
	spfMagic      = "XSPF"
	codecVersion  = 1
	codecName     = "pipeline: codec"
)

// Minimum encoded sizes of the records a decoder sizes a slice by, in
// bytes: one per varint, one for the length of each string or list. They
// bound wire.Dec.Count.
const (
	minRouteBytes     = 11 // U, Comm, ASPath, ASLen, LocalPref, MED, Origin, NextHop, Originator, Path, FromEBGP
	minRIBBytes       = 2  // name, route count
	minViolationBytes = 8  // Kind, Node, Detail, Cond, Prefix.Addr, Prefix.Len, Path, Originators
	minFIBBytes       = 5  // name, Entries, Arrive, BlackHole, port count
	minPortBytes      = 2  // name, predicate
	minPECBytes       = 3  // Pkt, Final, Path
	minDataVarBytes   = 2  // neighbor, count
)

// rootCollector assigns dense indices to the BDD roots a payload
// references, deduplicating by handle; the collected list is exported as
// one blob per manager.
type rootCollector struct {
	idx   map[bdd.Node]uint64
	roots []bdd.Node
}

func newRootCollector() *rootCollector {
	return &rootCollector{idx: map[bdd.Node]uint64{}}
}

func (c *rootCollector) add(n bdd.Node) uint64 {
	if i, ok := c.idx[n]; ok {
		return i
	}
	i := uint64(len(c.roots))
	c.idx[n] = i
	c.roots = append(c.roots, n)
	return i
}

// sortedKeys is the order map-shaped sections are written in.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// --- SRC -----------------------------------------------------------------

// EncodeSRC serializes a converged SRC artifact: the epvp.Result payload
// (symbolic RIBs across the prefix and community managers, AS-path
// automata, convergence counters) — everything needed to reconstruct the
// artifact around a freshly compiled engine without re-running the fixed
// point. The engine itself (its compiled transfers) is deliberately not
// persisted: it is derived from the configuration, which the content
// address already pins.
//
// The caller must hold the artifact's run lock: Export reads the shared
// managers.
func EncodeSRC(a *SRCArtifact) []byte {
	var e wire.Enc
	e.Magic(srcMagic, codecVersion)
	e.B(a.Res.Converged)
	e.U(uint64(a.Res.Iterations))
	e.U(uint64(a.Workers))
	e.U(uint64(len(a.Eng.Net.Externals)))

	prefixRoots := newRootCollector()
	commRoots := newRootCollector()
	autIdx := map[string]uint64{}
	var autBlobs [][]byte
	encodeRoute := func(r *symbolic.Route) {
		e.U(prefixRoots.add(r.U))
		e.U(commRoots.add(r.Comm))
		if r.ASPath == nil {
			e.U(0)
		} else {
			sig := r.ASPath.Signature()
			i, ok := autIdx[sig]
			if !ok {
				i = uint64(len(autBlobs))
				autIdx[sig] = i
				autBlobs = append(autBlobs, r.ASPath.Export())
			}
			e.U(i + 1)
		}
		e.U(uint64(r.ASLen))
		e.U(uint64(r.LocalPref))
		e.U(uint64(r.MED))
		e.U(uint64(r.Origin))
		e.Str(r.NextHop)
		e.Str(r.Originator)
		e.Strs(r.Path)
		e.B(r.FromEBGP)
	}
	encodeRIBs := func(ribs map[string][]*symbolic.Route) {
		e.U(uint64(len(ribs)))
		for _, n := range sortedKeys(ribs) {
			e.Str(n)
			e.U(uint64(len(ribs[n])))
			for _, r := range ribs[n] {
				encodeRoute(r)
			}
		}
	}
	// Route records come first and reference roots by index; the automaton
	// table and the two BDD blobs follow, carrying exactly the roots the
	// records accumulated.
	encodeRIBs(a.Res.Best)
	encodeRIBs(a.Res.ExternalRIB)
	e.U(uint64(len(autBlobs)))
	for _, b := range autBlobs {
		e.Bytes(b)
	}
	e.Bytes(a.Eng.Space.M.Export(prefixRoots.roots...))
	e.Bytes(a.Eng.Comm.M.Export(commRoots.roots...))
	return e
}

// rawRoute is a route record as stored: its predicates and AS path are
// indices into the tables at the blob's tail, resolved once those are
// decoded.
type rawRoute struct {
	u, comm, asp           uint64
	asLen, lp, med, origin uint64
	nextHop, originator    string
	path                   []string
	fromEBGP               bool
}

type rawRIB struct {
	name   string
	routes []rawRoute
}

func readRIBs(d *wire.Dec) []rawRIB {
	ribs := make([]rawRIB, d.Count("RIB", minRIBBytes))
	for i := range ribs {
		ribs[i].name = d.Str()
		ribs[i].routes = make([]rawRoute, d.Count("route", minRouteBytes))
		for j := range ribs[i].routes {
			r := &ribs[i].routes[j]
			r.u, r.comm, r.asp = d.U(), d.U(), d.U()
			r.asLen, r.lp, r.med, r.origin = d.U(), d.U(), d.U(), d.U()
			r.nextHop, r.originator = d.Str(), d.Str()
			r.path = d.Strs()
			r.fromEBGP = d.B()
		}
	}
	return ribs
}

// DecodeSRC rebuilds an SRC artifact from an EncodeSRC payload around a
// freshly compiled engine for the request's network and mode. The BDD
// roots are imported into the new engine's managers and the result is
// pinned by the caller exactly like a computed artifact.
func DecodeSRC(eng *epvp.Engine, load *LoadArtifact, key string, data []byte) (*SRCArtifact, error) {
	d := wire.NewDec(codecName, data)
	d.Magic(srcMagic, codecVersion)
	converged, iterations, workers := d.B(), d.U(), d.U()
	if n := d.U(); n != uint64(len(eng.Net.Externals)) {
		return nil, d.Failf("SRC blob has %d externals, engine has %d", n, len(eng.Net.Externals))
	}
	best, external := readRIBs(&d), readRIBs(&d)
	automata := make([]*automaton.Automaton, d.Count("automaton", 1))
	for i := range automata {
		var err error
		if automata[i], err = automaton.Import(d.Bytes()); err != nil {
			return nil, d.Failf("%v", err)
		}
	}
	prefixBlob, commBlob := d.Bytes(), d.Bytes()
	if err := d.Done(); err != nil {
		return nil, err
	}
	prefixRoots, err := eng.Space.M.Import(prefixBlob)
	if err != nil {
		return nil, err
	}
	commRoots, err := eng.Comm.M.Import(commBlob)
	if err != nil {
		return nil, err
	}

	buildRIBs := func(raw []rawRIB) map[string][]*symbolic.Route {
		out := make(map[string][]*symbolic.Route, len(raw))
		for _, rib := range raw {
			rs := make([]*symbolic.Route, len(rib.routes))
			for i, r := range rib.routes {
				if r.u >= uint64(len(prefixRoots)) || r.comm >= uint64(len(commRoots)) {
					d.Failf("route references out-of-range BDD root")
					return nil
				}
				if r.asp > uint64(len(automata)) {
					d.Failf("route references out-of-range automaton")
					return nil
				}
				rs[i] = &symbolic.Route{
					U:          prefixRoots[r.u],
					Comm:       commRoots[r.comm],
					ASLen:      int(r.asLen),
					LocalPref:  uint32(r.lp),
					MED:        uint32(r.med),
					Origin:     route.Origin(r.origin),
					NextHop:    r.nextHop,
					Originator: r.originator,
					Path:       r.path,
					FromEBGP:   r.fromEBGP,
				}
				if r.asp > 0 {
					rs[i].ASPath = automata[r.asp-1]
				}
				rs[i].Seal()
			}
			out[rib.name] = rs
		}
		return out
	}
	res := &epvp.Result{
		Converged: converged, Iterations: int(iterations),
		Best: buildRIBs(best), ExternalRIB: buildRIBs(external),
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return &SRCArtifact{
		Key: key, Digest: hashHex(key),
		Eng: eng, Res: res, Load: load,
		Workers: int(workers),
		runLock: new(sync.Mutex),
	}, nil
}

// --- Analysis ------------------------------------------------------------

// EncodeAnalysis serializes an analysis artifact: the violation list with
// each condition predicate exported from m. varBase records the data-plane
// variable offset the conditions were built against (0 for the routing
// stage, whose conditions use only control-plane variables); the decoder
// refuses a blob whose offset is not its own.
func EncodeAnalysis(a *AnalysisArtifact, m *bdd.Manager, varBase int) []byte {
	var e wire.Enc
	e.Magic(analysisMagic, codecVersion)
	e.U(uint64(varBase))
	roots := newRootCollector()
	e.U(uint64(len(a.Violations)))
	for _, v := range a.Violations {
		e.Str(string(v.Kind))
		e.Str(v.Node)
		e.Str(v.Detail)
		e.U(roots.add(v.Cond))
		e.U(uint64(v.Prefix.Addr))
		e.U(uint64(v.Prefix.Len))
		e.Strs(v.Path)
		e.Strs(v.Originators)
	}
	e.Bytes(m.Export(roots.roots...))
	return e
}

// DecodeAnalysis rebuilds an analysis artifact in m. varBase is the
// decoder's data-plane variable offset (matching the varBase passed to
// EncodeAnalysis); a blob that stored another is corrupt — the stage key
// pins the network, and with it the offset.
func DecodeAnalysis(m *bdd.Manager, key string, varBase int, data []byte) (*AnalysisArtifact, error) {
	d := wire.NewDec(codecName, data)
	d.Magic(analysisMagic, codecVersion)
	storedBase := d.U()
	vs := make([]properties.Violation, d.Count("violation", minViolationBytes))
	conds := make([]uint64, len(vs)) // root indices, resolved below
	for i := range vs {
		v := &vs[i]
		v.Kind, v.Node, v.Detail = properties.Kind(d.Str()), d.Str(), d.Str()
		conds[i] = d.U()
		addr, length := d.U(), d.U()
		if addr > 0xFFFFFFFF || length > 32 {
			return nil, d.Failf("violation prefix out of range")
		}
		v.Prefix = route.Prefix{Addr: uint32(addr), Len: uint8(length)}
		v.Path, v.Originators = d.Strs(), d.Strs()
	}
	blob := d.Bytes()
	if err := d.Done(); err != nil {
		return nil, err
	}
	if storedBase != uint64(varBase) {
		return nil, d.Failf("varBase %d, want %d", storedBase, varBase)
	}
	roots, err := m.Import(blob)
	if err != nil {
		return nil, err
	}
	for i, c := range conds {
		if c >= uint64(len(roots)) {
			return nil, d.Failf("violation references out-of-range BDD root")
		}
		vs[i].Cond = roots[c]
	}
	return &AnalysisArtifact{Key: key, Violations: vs}, nil
}

// --- SPF -----------------------------------------------------------------

// EncodeSPF serializes an SPF artifact: symbolic FIBs, PECs, and the
// per-neighbor data-plane variable statistics, with every predicate
// exported from the SRC manager m. The stored varBase is checked, not
// applied: every manager of a network holds its data-plane block at the
// same base (symbolic.Space.DataBase).
func EncodeSPF(a *SPFArtifact, m *bdd.Manager) []byte {
	var e wire.Enc
	e.Magic(spfMagic, codecVersion)
	e.U(uint64(a.Res.VarBase()))
	roots := newRootCollector()

	e.U(uint64(len(a.Res.FIBs)))
	for _, n := range sortedKeys(a.Res.FIBs) {
		f := a.Res.FIBs[n]
		e.Str(n)
		e.U(uint64(f.Entries))
		e.U(roots.add(f.Arrive))
		e.U(roots.add(f.BlackHole))
		ports := f.Ports()
		e.U(uint64(len(ports)))
		for _, p := range ports {
			e.Str(p)
			e.U(roots.add(f.PortPred[p]))
		}
	}
	e.U(uint64(len(a.Res.PECs)))
	for _, p := range a.Res.PECs {
		e.U(roots.add(p.Pkt))
		e.U(uint64(p.Final))
		e.Strs(p.Path)
	}
	e.U(uint64(len(a.Res.DataVarsPerNeighbor)))
	for _, n := range sortedKeys(a.Res.DataVarsPerNeighbor) {
		e.Str(n)
		e.U(uint64(a.Res.DataVarsPerNeighbor[n]))
	}
	e.Bytes(m.Export(roots.roots...))
	return e
}

// DecodeSPF rebuilds an SPF artifact around eng, importing the stored
// predicates onto the 33×n data-plane variable block of eng's prefix
// manager. A blob whose stored base is not that block's is corrupt. The
// blob's own order section says how its writer had the block ordered; a
// different order here costs import time, never the answer.
func DecodeSPF(eng *epvp.Engine, key string, data []byte) (*SPFArtifact, error) {
	d := wire.NewDec(codecName, data)
	d.Magic(spfMagic, codecVersion)
	storedBase := d.U()
	// Predicates are stored as indices into the BDD blob at the tail.
	type rawPort struct {
		name string
		pred uint64
	}
	type rawFIB struct {
		name                       string
		entries, arrive, blackHole uint64
		ports                      []rawPort
	}
	rawFIBs := make([]rawFIB, d.Count("FIB", minFIBBytes))
	for i := range rawFIBs {
		f := &rawFIBs[i]
		f.name = d.Str()
		f.entries, f.arrive, f.blackHole = d.U(), d.U(), d.U()
		f.ports = make([]rawPort, d.Count("FIB port", minPortBytes))
		for j := range f.ports {
			f.ports[j] = rawPort{name: d.Str(), pred: d.U()}
		}
	}
	type rawPEC struct {
		pkt, final uint64
		path       []string
	}
	rawPECs := make([]rawPEC, d.Count("PEC", minPECBytes))
	for i := range rawPECs {
		p := &rawPECs[i]
		p.pkt, p.final, p.path = d.U(), d.U(), d.Strs()
		if p.final > uint64(spf.Loop) || len(p.path) == 0 {
			return nil, d.Failf("PEC %d has an empty path or an unknown final state %d", i, p.final)
		}
	}
	dataVars := map[string]int{}
	for i := d.Count("data-var", minDataVarBytes); i > 0; i-- {
		name := d.Str()
		dataVars[name] = int(d.U())
	}
	blob := d.Bytes()
	if err := d.Done(); err != nil {
		return nil, err
	}

	// Import the stored predicates onto the manager's data-plane block,
	// allocated here, in the writer's order, if this is the manager's first
	// SPF result.
	if base := eng.Space.DataBase(); storedBase != uint64(base) {
		return nil, d.Failf("varBase %d, want %d", storedBase, base)
	}
	eng.Space.DataBlock(func() []int {
		order, _ := bdd.ExportedOrder(blob) // nil for a version-1 node table: the default order
		return eng.Space.BlockLengths(order)
	})
	roots, err := eng.Space.M.Import(blob)
	if err != nil {
		return nil, err
	}
	rootAt := func(i uint64) bdd.Node {
		if i >= uint64(len(roots)) {
			d.Failf("SPF artifact references out-of-range BDD root %d", i)
			return bdd.False
		}
		return roots[i]
	}
	fibs := make(map[string]*spf.FIB, len(rawFIBs))
	for _, rf := range rawFIBs {
		portPred := make(map[string]bdd.Node, len(rf.ports))
		for _, p := range rf.ports {
			portPred[p.name] = rootAt(p.pred)
		}
		fibs[rf.name] = spf.NewFIB(portPred, rootAt(rf.arrive), rootAt(rf.blackHole), int(rf.entries))
	}
	pecs := make([]*spf.PEC, len(rawPECs))
	for i, rp := range rawPECs {
		pecs[i] = &spf.PEC{Pkt: rootAt(rp.pkt), Path: rp.path, Final: spf.FinalState(rp.final)}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	res := spf.Rehydrate(eng, fibs, pecs, dataVars)
	return &SPFArtifact{Key: key, Digest: hashHex(key), Res: res}, nil
}

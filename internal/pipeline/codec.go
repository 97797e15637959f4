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
// error, which callers treat as a store miss.
package pipeline

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"github.com/expresso-verify/expresso/internal/automaton"
	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/epvp"
	"github.com/expresso-verify/expresso/internal/properties"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/spf"
	"github.com/expresso-verify/expresso/internal/symbolic"
)

// Payload magics and version. The store's envelope already carries a CRC
// and a framing version; this version tracks the artifact schemas, so a
// schema change reads as a decode error (= miss) for older blobs.
const (
	srcMagic      = "XSRC"
	analysisMagic = "XANL"
	spfMagic      = "XSPF"
	codecVersion  = 1
)

// enc is an append-only payload writer.
type enc struct{ buf []byte }

func (e *enc) u(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

func (e *enc) b(v bool) {
	if v {
		e.u(1)
	} else {
		e.u(0)
	}
}

func (e *enc) str(s string) {
	e.u(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *enc) bytes(b []byte) {
	e.u(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *enc) strs(s []string) {
	e.u(uint64(len(s)))
	for _, x := range s {
		e.str(x)
	}
}

// dec is a bounds-checked payload reader; every accessor returns an error
// on truncation so arbitrary bytes can never panic the decoder.
type dec struct {
	data []byte
	off  int
}

func (d *dec) u(what string) (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("pipeline: codec: truncated %s at offset %d", what, d.off)
	}
	d.off += n
	return v, nil
}

func (d *dec) b(what string) (bool, error) {
	v, err := d.u(what)
	if err != nil {
		return false, err
	}
	if v > 1 {
		return false, fmt.Errorf("pipeline: codec: bad bool %s", what)
	}
	return v == 1, nil
}

func (d *dec) str(what string) (string, error) {
	n, err := d.u(what)
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.data)-d.off) {
		return "", fmt.Errorf("pipeline: codec: truncated %s at offset %d", what, d.off)
	}
	s := string(d.data[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func (d *dec) bytes(what string) ([]byte, error) {
	n, err := d.u(what)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.data)-d.off) {
		return nil, fmt.Errorf("pipeline: codec: truncated %s at offset %d", what, d.off)
	}
	b := d.data[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

func (d *dec) strs(what string) ([]string, error) {
	n, err := d.u(what)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.data)-d.off) {
		return nil, fmt.Errorf("pipeline: codec: %s count %d exceeds blob size", what, n)
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = d.str(what); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (d *dec) magic(m string) error {
	if len(d.data)-d.off < len(m) || string(d.data[d.off:d.off+len(m)]) != m {
		return fmt.Errorf("pipeline: codec: bad magic (want %s)", m)
	}
	d.off += len(m)
	v, err := d.u("version")
	if err != nil {
		return err
	}
	if v != codecVersion {
		return fmt.Errorf("pipeline: codec: unsupported version %d", v)
	}
	return nil
}

func (d *dec) done() error {
	if d.off != len(d.data) {
		return fmt.Errorf("pipeline: codec: %d trailing bytes", len(d.data)-d.off)
	}
	return nil
}

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

// --- SRC -----------------------------------------------------------------

// EncodeSRC serializes a converged SRC artifact: the epvp.Result payload
// (symbolic RIBs across the prefix and community managers, AS-path
// automata, convergence counters) — everything needed to reconstruct the
// artifact around a freshly compiled engine without re-running the fixed
// point. The engine itself (compiled transfers, edge memo) is deliberately
// not persisted: it is derived from the configuration, which the content
// address already pins.
//
// The caller must hold the artifact's run lock: Export reads the shared
// managers.
func EncodeSRC(a *SRCArtifact) []byte {
	e := &enc{}
	e.buf = append(e.buf, srcMagic...)
	e.u(codecVersion)
	e.b(a.Res.Converged)
	e.u(uint64(a.Res.Iterations))
	e.u(uint64(a.Workers))
	e.u(uint64(len(a.Eng.Net.Externals)))

	prefixRoots := newRootCollector()
	commRoots := newRootCollector()
	autIdx := map[string]uint64{}
	var autBlobs [][]byte
	encodeRoute := func(r *symbolic.Route) {
		e.u(prefixRoots.add(r.U))
		e.u(commRoots.add(r.Comm))
		if r.ASPath == nil {
			e.u(0)
		} else {
			sig := r.ASPath.Signature()
			i, ok := autIdx[sig]
			if !ok {
				i = uint64(len(autBlobs))
				autIdx[sig] = i
				autBlobs = append(autBlobs, r.ASPath.Export())
			}
			e.u(i + 1)
		}
		e.u(uint64(r.ASLen))
		e.u(uint64(r.LocalPref))
		e.u(uint64(r.MED))
		e.u(uint64(r.Origin))
		e.str(r.NextHop)
		e.str(r.Originator)
		e.strs(r.Path)
		e.b(r.FromEBGP)
	}
	encodeRIBs := func(ribs map[string][]*symbolic.Route) {
		names := make([]string, 0, len(ribs))
		for n := range ribs {
			names = append(names, n)
		}
		sort.Strings(names)
		e.u(uint64(len(names)))
		for _, n := range names {
			e.str(n)
			e.u(uint64(len(ribs[n])))
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
	e.u(uint64(len(autBlobs)))
	for _, b := range autBlobs {
		e.bytes(b)
	}
	e.bytes(a.Eng.Space.M.Export(prefixRoots.roots...))
	e.bytes(a.Eng.Comm.M.Export(commRoots.roots...))
	return e.buf
}

// DecodeSRC rebuilds an SRC artifact from an EncodeSRC payload around a
// freshly compiled engine for the request's network and mode. The BDD
// roots are imported into the new engine's managers and the result is
// pinned by the caller exactly like a computed artifact.
func DecodeSRC(eng *epvp.Engine, load *LoadArtifact, key string, data []byte) (*SRCArtifact, error) {
	d := &dec{data: data}
	if err := d.magic(srcMagic); err != nil {
		return nil, err
	}
	converged, err := d.b("converged")
	if err != nil {
		return nil, err
	}
	iterations, err := d.u("iterations")
	if err != nil {
		return nil, err
	}
	workers, err := d.u("workers")
	if err != nil {
		return nil, err
	}
	n, err := d.u("externals")
	if err != nil {
		return nil, err
	}
	if int(n) != len(eng.Net.Externals) {
		return nil, fmt.Errorf("pipeline: codec: SRC blob has %d externals, engine has %d", n, len(eng.Net.Externals))
	}

	// First pass: read the route records with raw indices; resolve after
	// the automata and BDD blobs at the tail are decoded.
	type rawRoute struct {
		u, comm, asp           uint64
		asLen, lp, med, origin uint64
		nextHop, originator    string
		path                   []string
		fromEBGP               bool
	}
	readRoute := func() (rawRoute, error) {
		var r rawRoute
		var err error
		read := func(what string) uint64 {
			if err != nil {
				return 0
			}
			var v uint64
			v, err = d.u(what)
			return v
		}
		r.u = read("route U")
		r.comm = read("route Comm")
		r.asp = read("route ASPath")
		r.asLen = read("route ASLen")
		r.lp = read("route LocalPref")
		r.med = read("route MED")
		r.origin = read("route Origin")
		if err != nil {
			return r, err
		}
		if r.nextHop, err = d.str("route NextHop"); err != nil {
			return r, err
		}
		if r.originator, err = d.str("route Originator"); err != nil {
			return r, err
		}
		if r.path, err = d.strs("route Path"); err != nil {
			return r, err
		}
		r.fromEBGP, err = d.b("route FromEBGP")
		return r, err
	}
	type rawRIB struct {
		name   string
		routes []rawRoute
	}
	readRIBs := func(what string) ([]rawRIB, error) {
		cnt, err := d.u(what)
		if err != nil {
			return nil, err
		}
		if cnt > uint64(len(data)) {
			return nil, fmt.Errorf("pipeline: codec: %s count %d exceeds blob size", what, cnt)
		}
		out := make([]rawRIB, cnt)
		for i := range out {
			if out[i].name, err = d.str(what + " name"); err != nil {
				return nil, err
			}
			rc, err := d.u(what + " route count")
			if err != nil {
				return nil, err
			}
			if rc > uint64(len(data)) {
				return nil, fmt.Errorf("pipeline: codec: %s route count %d exceeds blob size", what, rc)
			}
			out[i].routes = make([]rawRoute, rc)
			for j := range out[i].routes {
				if out[i].routes[j], err = readRoute(); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}
	best, err := readRIBs("best RIBs")
	if err != nil {
		return nil, err
	}
	external, err := readRIBs("external RIBs")
	if err != nil {
		return nil, err
	}
	nAut, err := d.u("automaton count")
	if err != nil {
		return nil, err
	}
	if nAut > uint64(len(data)) {
		return nil, fmt.Errorf("pipeline: codec: automaton count %d exceeds blob size", nAut)
	}
	automata := make([]*automaton.Automaton, nAut)
	for i := range automata {
		blob, err := d.bytes("automaton")
		if err != nil {
			return nil, err
		}
		if automata[i], err = automaton.Import(blob); err != nil {
			return nil, err
		}
	}
	prefixBlob, err := d.bytes("prefix BDD blob")
	if err != nil {
		return nil, err
	}
	commBlob, err := d.bytes("community BDD blob")
	if err != nil {
		return nil, err
	}
	if err := d.done(); err != nil {
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

	buildRoute := func(r rawRoute) (*symbolic.Route, error) {
		if r.u >= uint64(len(prefixRoots)) || r.comm >= uint64(len(commRoots)) {
			return nil, fmt.Errorf("pipeline: codec: route references out-of-range BDD root")
		}
		if r.asp > uint64(len(automata)) {
			return nil, fmt.Errorf("pipeline: codec: route references out-of-range automaton")
		}
		out := &symbolic.Route{
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
			out.ASPath = automata[r.asp-1]
		}
		out.Seal()
		return out, nil
	}
	buildRIBs := func(raw []rawRIB) (map[string][]*symbolic.Route, error) {
		out := make(map[string][]*symbolic.Route, len(raw))
		for _, rib := range raw {
			rs := make([]*symbolic.Route, len(rib.routes))
			for i, rr := range rib.routes {
				var err error
				if rs[i], err = buildRoute(rr); err != nil {
					return nil, err
				}
			}
			out[rib.name] = rs
		}
		return out, nil
	}
	res := &epvp.Result{Converged: converged, Iterations: int(iterations)}
	if res.Best, err = buildRIBs(best); err != nil {
		return nil, err
	}
	if res.ExternalRIB, err = buildRIBs(external); err != nil {
		return nil, err
	}
	return &SRCArtifact{
		Key: key, Digest: hashHex(key),
		Eng: eng, Res: res, Load: load,
		Workers: int(workers),
		runLock: &sync.Mutex{},
	}, nil
}

// --- Analysis ------------------------------------------------------------

// EncodeAnalysis serializes an analysis artifact: the violation list with
// each condition predicate exported from m. varBase records the data-plane
// variable offset the conditions were built against (0 for the routing
// stage, whose conditions use only control-plane variables); the decoder
// relocates the predicates when its own offset differs.
func EncodeAnalysis(a *AnalysisArtifact, m *bdd.Manager, varBase int) []byte {
	e := &enc{}
	e.buf = append(e.buf, analysisMagic...)
	e.u(codecVersion)
	e.u(uint64(varBase))
	roots := newRootCollector()
	e.u(uint64(len(a.Violations)))
	for _, v := range a.Violations {
		e.str(string(v.Kind))
		e.str(v.Node)
		e.str(v.Detail)
		e.u(roots.add(v.Cond))
		e.u(uint64(v.Prefix.Addr))
		e.u(uint64(v.Prefix.Len))
		e.strs(v.Path)
		e.strs(v.Originators)
	}
	e.bytes(m.Export(roots.roots...))
	return e.buf
}

// DecodeAnalysis rebuilds an analysis artifact in m. varBase is the
// decoder's data-plane variable offset (matching the varBase passed to
// EncodeAnalysis); condition predicates are relocated from the stored
// offset to it.
func DecodeAnalysis(m *bdd.Manager, key string, varBase int, data []byte) (*AnalysisArtifact, error) {
	d := &dec{data: data}
	if err := d.magic(analysisMagic); err != nil {
		return nil, err
	}
	storedBase, err := d.u("varBase")
	if err != nil {
		return nil, err
	}
	cnt, err := d.u("violation count")
	if err != nil {
		return nil, err
	}
	if cnt > uint64(len(data)) {
		return nil, fmt.Errorf("pipeline: codec: violation count %d exceeds blob size", cnt)
	}
	type rawViolation struct {
		v    properties.Violation
		cond uint64
	}
	raw := make([]rawViolation, cnt)
	for i := range raw {
		kind, err := d.str("violation kind")
		if err != nil {
			return nil, err
		}
		raw[i].v.Kind = properties.Kind(kind)
		if raw[i].v.Node, err = d.str("violation node"); err != nil {
			return nil, err
		}
		if raw[i].v.Detail, err = d.str("violation detail"); err != nil {
			return nil, err
		}
		if raw[i].cond, err = d.u("violation cond"); err != nil {
			return nil, err
		}
		addr, err := d.u("violation prefix addr")
		if err != nil {
			return nil, err
		}
		length, err := d.u("violation prefix len")
		if err != nil {
			return nil, err
		}
		if addr > 0xFFFFFFFF || length > 32 {
			return nil, fmt.Errorf("pipeline: codec: violation prefix out of range")
		}
		raw[i].v.Prefix = route.Prefix{Addr: uint32(addr), Len: uint8(length)}
		if raw[i].v.Path, err = d.strs("violation path"); err != nil {
			return nil, err
		}
		if raw[i].v.Originators, err = d.strs("violation originators"); err != nil {
			return nil, err
		}
	}
	blob, err := d.bytes("analysis BDD blob")
	if err != nil {
		return nil, err
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	if storedBase > uint64(m.NumVars()) {
		return nil, fmt.Errorf("pipeline: codec: varBase %d out of range", storedBase)
	}
	roots, err := m.ImportShifted(blob, int(storedBase), varBase-int(storedBase))
	if err != nil {
		return nil, err
	}
	vs := make([]properties.Violation, len(raw))
	for i, r := range raw {
		if r.cond >= uint64(len(roots)) {
			return nil, fmt.Errorf("pipeline: codec: violation references out-of-range BDD root")
		}
		vs[i] = r.v
		vs[i].Cond = roots[r.cond]
	}
	return &AnalysisArtifact{Key: key, Violations: vs, m: m}, nil
}

// --- SPF -----------------------------------------------------------------

// EncodeSPF serializes an SPF artifact: symbolic FIBs, PECs, and the
// per-neighbor data-plane variable statistics, with every predicate
// exported from the SRC manager m. The stored varBase lets the decoder
// relocate the data-plane block (a blob written before managers kept one
// block each carries an offset that depends on its manager's history).
func EncodeSPF(a *SPFArtifact, m *bdd.Manager) []byte {
	e := &enc{}
	e.buf = append(e.buf, spfMagic...)
	e.u(codecVersion)
	e.u(uint64(a.Res.VarBase()))
	roots := newRootCollector()

	names := make([]string, 0, len(a.Res.FIBs))
	for n := range a.Res.FIBs {
		names = append(names, n)
	}
	sort.Strings(names)
	e.u(uint64(len(names)))
	for _, n := range names {
		f := a.Res.FIBs[n]
		e.str(n)
		e.u(uint64(f.Entries))
		e.u(roots.add(f.Arrive))
		e.u(roots.add(f.BlackHole))
		ports := f.Ports()
		e.u(uint64(len(ports)))
		for _, p := range ports {
			e.str(p)
			e.u(roots.add(f.PortPred[p]))
		}
	}
	e.u(uint64(len(a.Res.PECs)))
	for _, p := range a.Res.PECs {
		e.u(roots.add(p.Pkt))
		e.u(uint64(p.Final))
		e.strs(p.Path)
	}
	nbrs := make([]string, 0, len(a.Res.DataVarsPerNeighbor))
	for n := range a.Res.DataVarsPerNeighbor {
		nbrs = append(nbrs, n)
	}
	sort.Strings(nbrs)
	e.u(uint64(len(nbrs)))
	for _, n := range nbrs {
		e.str(n)
		e.u(uint64(a.Res.DataVarsPerNeighbor[n]))
	}
	e.bytes(m.Export(roots.roots...))
	return e.buf
}

// DecodeSPF rebuilds an SPF artifact around eng, relocating the stored
// predicates onto the 33×n data-plane variable block of eng's prefix
// manager. The blob's own order section says how its writer had the block
// ordered; a different order here costs import time, never the answer.
func DecodeSPF(eng *epvp.Engine, key string, data []byte) (*SPFArtifact, error) {
	d := &dec{data: data}
	if err := d.magic(spfMagic); err != nil {
		return nil, err
	}
	storedBase, err := d.u("varBase")
	if err != nil {
		return nil, err
	}
	nFIBs, err := d.u("FIB count")
	if err != nil {
		return nil, err
	}
	if nFIBs > uint64(len(data)) {
		return nil, fmt.Errorf("pipeline: codec: FIB count %d exceeds blob size", nFIBs)
	}
	type rawFIB struct {
		name              string
		entries           uint64
		arrive, blackHole uint64
		ports             []string
		portPred          []uint64
	}
	rawFIBs := make([]rawFIB, nFIBs)
	for i := range rawFIBs {
		f := &rawFIBs[i]
		if f.name, err = d.str("FIB name"); err != nil {
			return nil, err
		}
		if f.entries, err = d.u("FIB entries"); err != nil {
			return nil, err
		}
		if f.arrive, err = d.u("FIB arrive"); err != nil {
			return nil, err
		}
		if f.blackHole, err = d.u("FIB blackhole"); err != nil {
			return nil, err
		}
		nPorts, err := d.u("FIB port count")
		if err != nil {
			return nil, err
		}
		if nPorts > uint64(len(data)) {
			return nil, fmt.Errorf("pipeline: codec: port count %d exceeds blob size", nPorts)
		}
		f.ports = make([]string, nPorts)
		f.portPred = make([]uint64, nPorts)
		for j := range f.ports {
			if f.ports[j], err = d.str("FIB port"); err != nil {
				return nil, err
			}
			if f.portPred[j], err = d.u("FIB port pred"); err != nil {
				return nil, err
			}
		}
	}
	nPECs, err := d.u("PEC count")
	if err != nil {
		return nil, err
	}
	if nPECs > uint64(len(data)) {
		return nil, fmt.Errorf("pipeline: codec: PEC count %d exceeds blob size", nPECs)
	}
	type rawPEC struct {
		pkt   uint64
		final uint64
		path  []string
	}
	rawPECs := make([]rawPEC, nPECs)
	for i := range rawPECs {
		if rawPECs[i].pkt, err = d.u("PEC pkt"); err != nil {
			return nil, err
		}
		if rawPECs[i].final, err = d.u("PEC final"); err != nil {
			return nil, err
		}
		if rawPECs[i].final > uint64(spf.Loop) {
			return nil, fmt.Errorf("pipeline: codec: PEC final state %d out of range", rawPECs[i].final)
		}
		if rawPECs[i].path, err = d.strs("PEC path"); err != nil {
			return nil, err
		}
		if len(rawPECs[i].path) == 0 {
			return nil, fmt.Errorf("pipeline: codec: PEC with empty path")
		}
	}
	nDV, err := d.u("data-var count")
	if err != nil {
		return nil, err
	}
	if nDV > uint64(len(data)) {
		return nil, fmt.Errorf("pipeline: codec: data-var count %d exceeds blob size", nDV)
	}
	dataVars := make(map[string]int, nDV)
	for i := uint64(0); i < nDV; i++ {
		name, err := d.str("data-var neighbor")
		if err != nil {
			return nil, err
		}
		v, err := d.u("data-var value")
		if err != nil {
			return nil, err
		}
		dataVars[name] = int(v)
	}
	blob, err := d.bytes("SPF BDD blob")
	if err != nil {
		return nil, err
	}
	if err := d.done(); err != nil {
		return nil, err
	}

	// Relocate the stored predicates onto the manager's data-plane block,
	// allocated here, in the writer's order, if this is the manager's first
	// SPF result.
	m := eng.Space.M
	if storedBase > uint64(m.NumVars()) {
		return nil, fmt.Errorf("pipeline: codec: varBase %d out of range", storedBase)
	}
	n := len(eng.Net.Externals)
	varBase, _ := eng.Space.DataBlock(func() []int { return blockLengths(blob, int(storedBase), n) })
	roots, err := m.ImportShifted(blob, int(storedBase), varBase-int(storedBase))
	if err != nil {
		return nil, err
	}
	rootAt := func(i uint64) (bdd.Node, error) {
		if i >= uint64(len(roots)) {
			return 0, fmt.Errorf("pipeline: codec: SPF artifact references out-of-range BDD root")
		}
		return roots[i], nil
	}
	fibs := make(map[string]*spf.FIB, len(rawFIBs))
	for _, rf := range rawFIBs {
		arrive, err := rootAt(rf.arrive)
		if err != nil {
			return nil, err
		}
		blackHole, err := rootAt(rf.blackHole)
		if err != nil {
			return nil, err
		}
		portPred := make(map[string]bdd.Node, len(rf.ports))
		for j, p := range rf.ports {
			if portPred[p], err = rootAt(rf.portPred[j]); err != nil {
				return nil, err
			}
		}
		fibs[rf.name] = spf.NewFIB(portPred, arrive, blackHole, int(rf.entries))
	}
	pecs := make([]*spf.PEC, len(rawPECs))
	for i, rp := range rawPECs {
		pkt, err := rootAt(rp.pkt)
		if err != nil {
			return nil, err
		}
		pecs[i] = &spf.PEC{Pkt: pkt, Path: rp.path, Final: spf.FinalState(rp.final)}
	}
	res := spf.Rehydrate(eng, varBase, fibs, pecs, dataVars)
	return &SPFArtifact{Key: key, Digest: hashHex(key), Res: res, m: eng.Space.M}, nil
}

// blockLengths reads, from the order section of an SPF artifact's BDD blob,
// how its writer had the 33×n data-plane block at base ordered: the prefix
// lengths by the first level any of their variables sits at, topmost
// first. A blob that does not say (no neighbors, a block cut short, a
// section that does not decode) yields nil — the default order, which costs
// import time and never the answer.
func blockLengths(blob []byte, base, n int) []int {
	order, err := bdd.ExportedOrder(blob)
	if err != nil || n == 0 {
		return nil
	}
	var lengths []int
	seen := [symbolic.AddrBits + 1]bool{}
	for _, v := range order {
		if l := (v - base) / n; v >= base && l <= symbolic.AddrBits && !seen[l] {
			seen[l] = true
			lengths = append(lengths, l)
		}
	}
	if len(lengths) != len(seen) {
		return nil
	}
	return lengths
}

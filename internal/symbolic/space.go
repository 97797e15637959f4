// Package symbolic defines Expresso's symbolic routes (§4.2 of the paper)
// and the operations on them (§4.3): the control-plane BDD space over
// prefix, length, and advertiser variables; symbolic route constraint,
// merge with preference-based dropping, and the compilation of route
// policies into complete, non-overlapping guarded transfer functions
// (Algorithm 2).
package symbolic

import (
	"fmt"
	"slices"
	"sync"

	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/route"
)

// Control-plane variable layout (§3.1: 38 + n variables for IPv4):
// vars 0..31 are address bits (0 = most significant), 32..37 are the prefix
// length (6 bits, MSB first), and 38..38+n-1 are advertiser variables, one
// per external neighbor.
const (
	// AddrBits is the number of address bits.
	AddrBits = 32
	// LenBits is the number of prefix-length bits.
	LenBits = 6
	// FirstNbrVar is the index of the first advertiser variable.
	FirstNbrVar = AddrBits + LenBits
)

// Space is the control-plane symbolic universe for a network with a fixed
// number of external neighbors.
//
// M is the shared node universe (safe for concurrent hash-consing); W is
// the operation view holding the memo for ITE-based connectives, M's
// default worker. A Space must be used by one goroutine at a time;
// parallel phases take views over M's kept workers from Workers
// (Sylvan-style per-worker op caches over the same manager), so BDD
// handles remain interchangeable between views.
type Space struct {
	M            *bdd.Manager
	W            *bdd.Worker
	NumNeighbors int

	addrVars []int
	lenVars  []int
	// prefixVars is the 38-bit (length, address) field every prefix
	// predicate is a cube set over: lenVars then addrVars, most significant
	// first, so a prefix reads as the integer len<<32 | addr.
	prefixVars []int

	valid bdd.Node // canonical-prefix predicate, cached

	// data is M's data-plane state, shared by every worker view and every
	// warm-started engine over M (they all copy or share this Space).
	data *dataBlock
}

// dataBlock is a manager's data-plane state: the order of the one
// advertiser block it holds and the memo of what SPF converted into it.
type dataBlock struct {
	mu      sync.Mutex // guards lengths
	lengths []int      // the block's prefix lengths, topmost level first; nil until allocated

	// conv memoizes conversion by U for every SPF run in the manager (a
	// pinned baseline's deltas mostly convert the baseline's own sets).
	// convGen is the manager generation it was filled under: a reclaim or
	// a sift may recycle handle numbers, so a stale memo is dropped, not
	// trusted. memoMu guards both.
	memoMu  sync.Mutex
	convGen uint64
	conv    map[bdd.Node]Conversion

	// renames[l] is PerLengthRename(l), built on first use.
	renameOnce sync.Once
	renames    [AddrBits + 1]map[int]int
}

// LengthMatch is one prefix length's share of a converted set: packets to
// prefixes of that length, over the destination bits and the length's
// data-plane advertiser variables.
type LengthMatch struct {
	Length int
	Match  bdd.Node
}

// Conversion is a prefix-environment set compiled into the data plane
// (§5.1): one match per prefix length present, and the data-plane
// variables those matches reference.
type Conversion struct {
	Matches []LengthMatch
	Vars    []int
}

// Converted returns the conversion of u memoized in M's data block, if one
// was made since M last moved its generation. Safe for concurrent use.
func (s *Space) Converted(u bdd.Node) (Conversion, bool) {
	d := s.data
	d.memoMu.Lock()
	defer d.memoMu.Unlock()
	d.sync(s.M)
	c, ok := d.conv[u]
	return c, ok
}

// RememberConversion memoizes c as the conversion of u in M's data block.
// Conversions are pure functions of u, so of two racing callers the later
// overwrites an equal value. Safe for concurrent use.
func (s *Space) RememberConversion(u bdd.Node, c Conversion) {
	d := s.data
	d.memoMu.Lock()
	defer d.memoMu.Unlock()
	d.sync(s.M)
	d.conv[u] = c
}

// sync drops a memo filled under an earlier generation of m. Caller holds
// d.memoMu.
func (d *dataBlock) sync(m *bdd.Manager) {
	if g := m.Gen(); d.conv == nil || g != d.convGen {
		d.convGen, d.conv = g, map[bdd.Node]Conversion{}
	}
}

// LongestFirst returns the prefix lengths 32 down to 0: the order
// longest-prefix match decides in, and the data-plane block's default.
func LongestFirst() []int {
	out := make([]int, 0, AddrBits+1)
	for l := AddrBits; l >= 0; l-- {
		out = append(out, l)
	}
	return out
}

// DataBase is the first variable of the data-plane advertiser block
// (§5.1): DataBlock's allocation is the only growth of a prefix manager, so
// every manager of a network holds the block there.
func (s *Space) DataBase() int { return FirstNbrVar + s.NumNeighbors }

// DataVar returns the data-plane advertiser variable n_i^l of neighbor i
// and prefix length l: DataBase + l·n + i.
func (s *Space) DataVar(i, l int) int { return s.DataBase() + l*s.NumNeighbors + i }

// DataNeighbor returns the neighbor index i of a data-plane variable n_i^l.
func (s *Space) DataNeighbor(v int) int { return (v - s.DataBase()) % s.NumNeighbors }

// PerLength renames a control-plane advertiser variable n_i to its length-l
// data-plane variable n_i^l; ok is false for every other variable.
func (s *Space) PerLength(v, l int) (dv int, ok bool) {
	if v < FirstNbrVar || v >= s.DataBase() {
		return 0, false
	}
	return s.DataVar(v-FirstNbrVar, l), true
}

// PerLengthRename returns the renaming of every control-plane advertiser
// variable n_i to n_i^l (bdd.Worker.Convert's rename). The map is built
// once per manager and shared; callers must not modify it.
func (s *Space) PerLengthRename(l int) map[int]int {
	d := s.data
	d.renameOnce.Do(func() {
		for l := range d.renames {
			d.renames[l] = make(map[int]int, s.NumNeighbors)
			for _, v := range s.NbrVars() {
				d.renames[l][v], _ = s.PerLength(v, l)
			}
		}
	})
	return d.renames[l]
}

// BlockLengths reads how a manager's data-plane block is ordered from its
// variable order (level2var): the prefix lengths by the first level any of
// their variables sits at, topmost first; nil when the order holds no whole
// block.
func (s *Space) BlockLengths(order []int) []int {
	var lengths []int
	for _, v := range order {
		if v < s.DataBase() || s.NumNeighbors == 0 {
			continue
		}
		if l := (v - s.DataBase()) / s.NumNeighbors; l <= AddrBits && !slices.Contains(lengths, l) {
			lengths = append(lengths, l)
		}
	}
	if len(lengths) != AddrBits+1 {
		return nil
	}
	return lengths
}

// DataBlock returns M's data-plane advertiser block (§5.1): its first
// variable, DataBase, and its prefix lengths from the topmost level down.
// The first call allocates the block below every control-plane level — the
// n variables of lengths()[0] topmost in neighbor order, then those of
// lengths()[1], and so on — where lengths returns a permutation of 0..32; a
// nil lengths, or a nil return, means LongestFirst. Every later call on a
// space over the same manager returns that block and leaves lengths
// uncalled, so a manager that serves many runs (a pinned baseline and its
// deltas) holds one block, in the order its first run chose. The
// allocating call is a structural mutation of M and needs the same
// quiescence as bdd.Manager.AddVarsOrdered.
func (s *Space) DataBlock(lengths func() []int) (base int, order []int) {
	d := s.data
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lengths == nil {
		if lengths != nil {
			d.lengths = lengths()
		}
		if d.lengths == nil {
			d.lengths = LongestFirst()
		}
		n := s.NumNeighbors
		offsets := make([]int, 0, len(d.lengths)*n)
		for _, l := range d.lengths {
			for i := 0; i < n; i++ {
				offsets = append(offsets, l*n+i)
			}
		}
		if got := s.M.AddVarsOrdered(offsets); got != s.DataBase() {
			panic(fmt.Sprintf("symbolic: data-plane block allocated at %d, want %d", got, s.DataBase()))
		}
	}
	return s.DataBase(), d.lengths
}

// nbrSplitBit is the address bit the advertiser block is interleaved
// after: bits 0..23 discriminate which prefix (and so which neighbors)
// a point belongs to, while bits 24..31 are host-suffix bits that the
// canonical-prefix constraint mostly pins to zero. Tuned empirically on
// the netgen regions (see EXPERIMENTS.md): 24 beats both the blocked
// layout and denser interleavings at every region scale measured.
const nbrSplitBit = 24

// InitialOrder returns the static variable order NewSpace installs, as a
// level2var permutation: prefix-length bits first, then address bits
// 0..23, then the advertiser block, then the host-suffix address bits.
//
// The blocked layout (address, length, advertisers — variable index ==
// level) puts every advertiser decision below all 38 prefix levels, so a
// route set pairing prefix ranges with the neighbors advertising them
// repeats its host-suffix structure once per advertiser condition.
// Interleaving the advertiser block above those suffix bits lets every
// route share the canonical zero-suffix chains, and keeping the block
// contiguous keeps Cond/PrefixPart quantification cheap — spreading
// advertisers bit-by-bit through the address range blows the product up
// at region-4 scale and beyond. Length bits go first because the
// canonical-prefix predicate ("bits at or below the length are zero")
// collapses to one shared zero-suffix chain once the length is known.
func InitialOrder(n int) []int {
	order := make([]int, 0, FirstNbrVar+n)
	for b := 0; b < LenBits; b++ {
		order = append(order, AddrBits+b)
	}
	for b := 0; b < nbrSplitBit; b++ {
		order = append(order, b)
	}
	for i := 0; i < n; i++ {
		order = append(order, FirstNbrVar+i)
	}
	for b := nbrSplitBit; b < AddrBits; b++ {
		order = append(order, b)
	}
	return order
}

// NewSpace allocates a control-plane space for n external neighbors,
// with the interleaved InitialOrder installed as the variable order.
func NewSpace(n int) *Space {
	return newSpace(bdd.NewOrdered(FirstNbrVar+n, InitialOrder(n)), n)
}

// NewOrderedSpace allocates a space under any order of its FirstNbrVar+n
// variables, for the tests that show results do not depend on the order.
func NewOrderedSpace(n int, level2var []int) *Space {
	return newSpace(bdd.NewOrdered(FirstNbrVar+n, level2var), n)
}

// NewBlockedSpace allocates a space with the legacy blocked layout
// (variable index == level). Kept for order-sensitivity measurements;
// verification results are identical either way, only node counts move.
func NewBlockedSpace(n int) *Space {
	return newSpace(bdd.New(FirstNbrVar+n), n)
}

func newSpace(m *bdd.Manager, n int) *Space {
	s := &Space{
		M:            m,
		NumNeighbors: n,
		data:         &dataBlock{},
	}
	s.W = s.M.DefaultWorker()
	s.addrVars = make([]int, AddrBits)
	for i := range s.addrVars {
		s.addrVars[i] = i
	}
	s.lenVars = make([]int, LenBits)
	for i := range s.lenVars {
		s.lenVars[i] = AddrBits + i
	}
	s.prefixVars = append(append([]int(nil), s.lenVars...), s.addrVars...)
	s.valid = s.computeValid()
	// The cached predicate must survive dead-node reclamation for the life
	// of the space (worker views share it by value).
	s.M.Pin(s.valid)
	return s
}

// Workers returns n views of the space over M's first n kept workers
// (bdd.Manager.Workers), view 0 over the default worker. Views share the
// node universe (handles are interchangeable) and the data block; each
// must be used by one goroutine at a time, and one run at a time uses the
// set.
func (s *Space) Workers(n int) []*Space {
	ws := s.M.Workers(n)
	out := make([]*Space, len(ws))
	for i, w := range ws {
		c := *s
		c.W = w
		out[i] = &c
	}
	return out
}

// NbrVar returns the advertiser variable of neighbor i.
func (s *Space) NbrVar(i int) int {
	if i < 0 || i >= s.NumNeighbors {
		panic(fmt.Sprintf("symbolic: neighbor %d out of range", i))
	}
	return FirstNbrVar + i
}

// NbrVars returns all advertiser variables.
func (s *Space) NbrVars() []int {
	out := make([]int, s.NumNeighbors)
	for i := range out {
		out[i] = FirstNbrVar + i
	}
	return out
}

// The two fields of a prefixVars cube, as care masks.
const (
	lenMask  = (1<<LenBits - 1) << AddrBits
	addrMask = 1<<AddrBits - 1
)

// prefixCube is the prefixVars cube "length == l, the address bits in fixed
// equal addr's, and every address bit at or below the length is zero" — the
// canonical prefixes of length l under addr/fixed. ok is false when the two
// demands collide (a 1-bit of addr at or below the length): no such prefix.
func prefixCube(addr, fixed uint32, l int) (c bdd.BitCube, ok bool) {
	zero := ^route.MaskOf(uint8(l))
	if addr&fixed&zero != 0 {
		return c, false
	}
	return bdd.BitCube{
		Care: lenMask | uint64(fixed|zero),
		Val:  uint64(l)<<AddrBits | uint64(addr&fixed),
	}, true
}

// computeValid builds the canonical-prefix predicate: the length is at most
// 32 and every address bit at or below the length is zero. This keeps each
// (address, length) pair a unique prefix.
func (s *Space) computeValid() bdd.Node {
	cubes := make([]bdd.BitCube, 0, AddrBits+1)
	for l := 0; l <= AddrBits; l++ {
		c, _ := prefixCube(0, 0, l)
		cubes = append(cubes, c)
	}
	return s.M.CubeSet(s.prefixVars, cubes)
}

// Valid returns the canonical-prefix predicate (the universe of all
// 2^33 - 1 prefixes).
func (s *Space) Valid() bdd.Node { return s.valid }

// PrefixBDD returns the predicate identifying exactly prefix p.
func (s *Space) PrefixBDD(p route.Prefix) bdd.Node {
	return s.M.UintCube(s.prefixVars, uint64(p.Len)<<AddrBits|uint64(p.Addr))
}

// DestBDD returns the packet-destination predicate of prefix p: the high
// p.Len address bits fixed, host bits (and the length field) free.
func (s *Space) DestBDD(p route.Prefix) bdd.Node {
	return s.M.UintCube(s.addrVars[:p.Len], uint64(p.Addr>>(AddrBits-p.Len)))
}

// PrefixesBDD returns the union of PrefixBDD over ps.
func (s *Space) PrefixesBDD(ps []route.Prefix) bdd.Node {
	cubes := make([]bdd.BitCube, len(ps))
	for i, p := range ps {
		cubes[i] = bdd.BitCube{Care: lenMask | addrMask, Val: uint64(p.Len)<<AddrBits | uint64(p.Addr)}
	}
	return s.M.CubeSet(s.prefixVars, cubes)
}

// PrefixMatchBDD returns the predicate for if-match prefix specs — a policy
// node's whole list in one call: all canonical prefixes inside some
// m.Prefix with length in [m.GE, m.LE]. One cube per spec and admitted
// length, built as a single cube set.
func (s *Space) PrefixMatchBDD(ms ...config.PrefixMatch) bdd.Node {
	cubes := make([]bdd.BitCube, 0, len(ms))
	for _, m := range ms {
		fixed := route.MaskOf(m.Prefix.Len)
		for l := int(m.GE); l <= int(m.LE) && l <= AddrBits; l++ {
			if c, ok := prefixCube(m.Prefix.Addr, fixed, l); ok {
				cubes = append(cubes, c)
			}
		}
	}
	return s.M.CubeSet(s.prefixVars, cubes)
}

// Cond extracts the advertiser condition of a predicate: the paper's
// Cond(), existential quantification of the address and length variables.
func (s *Space) Cond(u bdd.Node) bdd.Node {
	vars := make([]int, 0, FirstNbrVar)
	vars = append(vars, s.addrVars...)
	vars = append(vars, s.lenVars...)
	return s.W.Exists(u, vars...)
}

// PrefixPart extracts the prefix part of a predicate: existential
// quantification of the advertiser variables.
func (s *Space) PrefixPart(u bdd.Node) bdd.Node {
	return s.W.Exists(u, s.NbrVars()...)
}

// lengthSlices[l] selects the canonical prefixes of length l: the length
// field fixed to l, the host address bits (zero in canonical form) to zero.
// Read-only after init.
var lengthSlices = func() (out [AddrBits + 1]map[int]bool) {
	for l := range out {
		values := map[int]bool{}
		for b := 0; b < LenBits; b++ {
			values[AddrBits+b] = l&(1<<(LenBits-1-b)) != 0
		}
		for b := l; b < AddrBits; b++ {
			values[b] = false
		}
		out[l] = values
	}
	return out
}()

// LengthSlice returns the restriction that selects u's prefixes of length
// l with their host bits dropped (bdd.Worker.Convert's fix). The map is
// shared; callers must not modify it.
func LengthSlice(l int) map[int]bool { return lengthSlices[l] }

// LengthCofactor returns u with its length field fixed to l. For a route
// set — every one lies inside Valid, whose length-l cofactor pins the host
// bits to zero — it stands for the LengthSlice of u one for one: two sets
// have the same slice at l exactly when they have the same cofactor, and
// the slice is empty exactly when the cofactor is False. Under
// InitialOrder the length bits are the top six levels, so it is a walk of
// at most six steps that builds nothing; under another order the levels
// above them are rebuilt.
func (s *Space) LengthCofactor(u bdd.Node, l int) bdd.Node {
	return s.M.Cofactor(u, s.lenVars, uint64(l))
}

// Lengths returns the sorted prefix lengths of route set u: those whose
// LengthCofactor is not False. Safe for concurrent use.
func (s *Space) Lengths(u bdd.Node) []int {
	var out []int
	for l := 0; l <= AddrBits; l++ {
		if s.LengthCofactor(u, l) != bdd.False {
			out = append(out, l)
		}
	}
	return out
}

// DecodePrefix reads the prefix selected by a satisfying assignment (as
// returned by the manager's AnySat; unassigned variables default to zero).
func (s *Space) DecodePrefix(assign map[int]bool) route.Prefix {
	var addr uint32
	for b := 0; b < AddrBits; b++ {
		if assign[s.addrVars[b]] {
			addr |= 1 << (31 - b)
		}
	}
	var l uint8
	for b := 0; b < LenBits; b++ {
		if assign[s.lenVars[b]] {
			l |= 1 << (LenBits - 1 - b)
		}
	}
	if l > 32 {
		l = 32
	}
	return route.Prefix{Addr: addr & route.MaskOf(l), Len: l}
}

package bdd

import (
	"math"

	"github.com/expresso-verify/expresso/internal/wire"
)

// Binary graph format (version 2). All integers are unsigned varints.
//
//	magic   "XBDD" (4 bytes)
//	version uvarint (currently 2; version-1 blobs still import)
//	numVars uvarint (variable count of the exporting manager)
//	order   numVars uvarints (v2 only): the exporter's level2var
//	        permutation — entry l is the variable index decided at blob
//	        level l. Version-1 blobs carry no section and decode as the
//	        identity order.
//	count   uvarint (number of non-constant nodes in the table)
//	count × node records, children before parents:
//	    level uvarint  (a position in the BLOB's order, not a variable index)
//	    low   uvarint  (ref<<1 | complement; ref 0 is the constant,
//	                    ref i ≤ position refers to the i-th record)
//	    high  uvarint  (same encoding; never complemented — canonical form)
//	nroots  uvarint
//	nroots × root refs (ref<<1 | complement)
//
// The table is topologically ordered (every child precedes its parent), so
// a decoder can rebuild the graph in one forward pass through the manager's
// canonical constructor. Handles are positional: the blob carries no slab
// indices, so it is independent of the exporting manager's allocation
// history and imports cleanly into any manager with enough variables —
// even one whose variable order differs from the exporter's (the decoder
// translates blob levels to variable indices through the order section and
// re-canonicalizes under the importing order).
const (
	serializeMagic   = "XBDD"
	serializeVersion = 2
)

// Export serializes the graphs reachable from roots into the versioned
// binary node-table format. Complement-edge structure is preserved exactly;
// the root list keeps order and duplicates. The result is deterministic for
// a given graph shape (depth-first post-order from the roots), though not
// across managers that built the same functions in different orders.
func (m *Manager) Export(roots ...Node) []byte {
	// Map stored slot index -> 1-based table position, children first.
	pos := map[Node]uint32{0: 0} // stored constant is table ref 0
	var order []Node             // stored (uncomplemented) handles, topo order

	var stack []Node
	for _, r := range roots {
		stack = append(stack, r&^1)
	}
	// Iterative post-order: push children, emit when both are placed.
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		if _, ok := pos[n]; ok {
			stack = stack[:len(stack)-1]
			continue
		}
		nd := m.nodeAt(n)
		lo, hi := nd.low&^1, nd.high&^1
		_, okLo := pos[lo]
		_, okHi := pos[hi]
		if okLo && okHi {
			stack = stack[:len(stack)-1]
			order = append(order, n)
			pos[n] = uint32(len(order))
			continue
		}
		if !okLo {
			stack = append(stack, lo)
		}
		if !okHi {
			stack = append(stack, hi)
		}
	}

	e := make(wire.Enc, 0, 16+2*m.numVars+7*len(order))
	e.Magic(serializeMagic, serializeVersion)
	e.U(uint64(m.numVars))
	for _, v := range m.level2var {
		e.U(uint64(v))
	}
	e.U(uint64(len(order)))
	for _, n := range order {
		nd := m.nodeAt(n)
		e.U(uint64(nd.level))
		e.U(uint64(pos[nd.low&^1])<<1 | uint64(nd.low&1))
		e.U(uint64(pos[nd.high&^1])<<1 | uint64(nd.high&1))
	}
	e.U(uint64(len(roots)))
	for _, r := range roots {
		e.U(uint64(pos[r&^1])<<1 | uint64(r&1))
	}
	return e
}

// Import decodes an Export blob into m and returns the root handles,
// re-canonicalized through the manager's hash-consing constructor: imported
// functions unify with structurally identical nodes m already holds. It is
// total over arbitrary input — malformed, truncated, or corrupt bytes
// produce an error, never a panic or a non-canonical node. Variables keep
// their indices; their levels are m's. A record whose children do not sit
// strictly deeper under m's order — m may hold its variables in any
// permutation of the exporter's — is rebuilt through ITE instead of the
// linear constructor.
func (m *Manager) Import(data []byte) ([]Node, error) {
	d := wire.NewDec("bdd: import", data)
	storedVars, blobOrder := readHeader(&d)
	count := uint64(d.Count("node", 3)) // level, low, high
	if err := d.Err(); err != nil {
		return nil, err
	}

	handles := make([]Node, count+1) // table ref -> handle in m; ref 0 = False
	levels := make([]int32, count+1) // blob level per ref (for ordering checks)
	levels[0] = maxLevel
	var w *Worker // lazy: only created when a record needs the ITE path
	// The restart path decodes every persisted node through this loop: it
	// reads the shared reader directly, one record per iteration.
	for i := uint64(1); i <= count; i++ {
		rawLevel, lo, hi := d.U(), d.U(), d.U()
		lowRef, lowC, highRef := lo>>1, lo&1, hi>>1
		if rawLevel >= storedVars {
			return nil, d.Failf("node %d level %d out of range [0,%d)", i, rawLevel, storedVars)
		}
		// Blob level -> variable index.
		v := int64(rawLevel)
		if blobOrder != nil {
			v = int64(blobOrder[rawLevel])
		}
		if v >= int64(m.numVars) {
			return nil, d.Failf("node %d variable %d outside manager range [0,%d)", i, v, m.numVars)
		}
		if lowRef >= i || highRef >= i {
			return nil, d.Failf("node %d references an entry at or after itself", i)
		}
		if hi&1 != 0 {
			return nil, d.Failf("node %d has complemented high edge (non-canonical)", i)
		}
		if lowRef == highRef && lowC == 0 {
			return nil, d.Failf("node %d has identical children (non-canonical)", i)
		}
		// Children must sit strictly deeper in the blob's variable order.
		if levels[lowRef] <= int32(rawLevel) || levels[highRef] <= int32(rawLevel) {
			return nil, d.Failf("node %d violates variable ordering", i)
		}
		low, high := handles[lowRef]^Node(lowC), handles[highRef]
		// Under the importing manager's order the children usually still
		// sit strictly deeper, and the linear canonical constructor
		// applies. When the importing order disagrees with the blob's
		// (this manager sifted, the exporter didn't, or vice versa), fall
		// back to ITE, which re-canonicalizes at any relative order.
		lvl := m.var2level[v]
		if m.level(low) > lvl && m.level(high) > lvl {
			handles[i] = m.mk(lvl, low, high)
		} else {
			if w == nil {
				w = m.NewWorker()
			}
			handles[i] = w.ite3(m.Var(int(v)), high, low)
		}
		levels[i] = int32(rawLevel)
	}

	roots := make([]Node, d.Count("root", 1))
	for i := range roots {
		r := d.U()
		if r>>1 > count {
			return nil, d.Failf("root %d references out-of-range entry %d", i, r>>1)
		}
		roots[i] = handles[r>>1] ^ Node(r&1)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return roots, nil
}

// readHeader decodes a blob's magic, version, variable count and order
// section, leaving d at the node table. blobOrder maps blob levels to the
// exporter's variable indices; it is nil for version 1, which predates
// reordering and means the identity. A malformed section (out-of-range
// entry, repeated variable) is a corrupt blob and fails d like any other
// decode failure — store layers treat that as a cache miss, never a panic.
func readHeader(d *wire.Dec) (storedVars uint64, blobOrder []int32) {
	if d.Magic(serializeMagic, 1, serializeVersion) == 1 {
		storedVars = d.U()
	} else {
		storedVars = uint64(d.Count("order entry", 1))
		blobOrder = make([]int32, storedVars)
		seen := make([]bool, storedVars)
		for l := range blobOrder {
			v := d.U()
			if v >= storedVars || seen[v] {
				d.Failf("order section is not a permutation of [0,%d)", storedVars)
				return 0, nil
			}
			seen[v] = true
			blobOrder[l] = int32(v)
		}
	}
	if storedVars > math.MaxInt32 {
		d.Failf("numVars %d out of range", storedVars)
	}
	return storedVars, blobOrder
}

// ExportedOrder returns the variable order an Export blob was written
// under — element l is the exporter's variable index at level l — without
// decoding its nodes. An importer that installs the same order before
// Import rebuilds the graph node for node through the linear constructor.
// A version-1 blob carries no order section and yields nil: its order is the
// identity over however many variables it declares, a number nothing in the
// blob bounds.
func ExportedOrder(data []byte) ([]int, error) {
	d := wire.NewDec("bdd: import", data)
	_, blobOrder := readHeader(&d)
	if err := d.Err(); err != nil || blobOrder == nil {
		return nil, err
	}
	order := make([]int, len(blobOrder))
	for l, v := range blobOrder {
		order[l] = int(v)
	}
	return order, nil
}

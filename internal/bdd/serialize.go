package bdd

import (
	"encoding/binary"
	"fmt"
	"math"
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

	buf := make([]byte, 0, 16+2*m.numVars+7*len(order))
	buf = append(buf, serializeMagic...)
	buf = binary.AppendUvarint(buf, serializeVersion)
	buf = binary.AppendUvarint(buf, uint64(m.numVars))
	for _, v := range m.level2var {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	buf = binary.AppendUvarint(buf, uint64(len(order)))
	for _, n := range order {
		nd := m.nodeAt(n)
		buf = binary.AppendUvarint(buf, uint64(nd.level))
		buf = binary.AppendUvarint(buf, uint64(pos[nd.low&^1])<<1|uint64(nd.low&1))
		buf = binary.AppendUvarint(buf, uint64(pos[nd.high&^1])<<1|uint64(nd.high&1))
	}
	buf = binary.AppendUvarint(buf, uint64(len(roots)))
	for _, r := range roots {
		buf = binary.AppendUvarint(buf, uint64(pos[r&^1])<<1|uint64(r&1))
	}
	return buf
}

// Import decodes an Export blob into m and returns the root handles,
// re-canonicalized through the manager's hash-consing constructor: imported
// functions unify with structurally identical nodes m already holds. It is
// total over arbitrary input — malformed, truncated, or corrupt bytes
// produce an error, never a panic or a non-canonical node.
func (m *Manager) Import(data []byte) ([]Node, error) {
	return m.ImportShifted(data, 0, 0)
}

// ImportShifted is Import with a monotone variable relocation: delta is
// added to the index of every variable whose index is ≥ from. The
// pipeline uses it to rebase data-plane variables allocated with AddVars at
// a different offset than in the exporting manager. (For version-1 blobs
// and identity-ordered exporters, variable indices and blob levels
// coincide, so this matches the historical level-space relocation.)
// Relocation must preserve the relative order of the blob's variables in
// blob-level space, which the per-edge structural check enforces; nodes
// whose importing levels disagree with the blob's ordering — the importing
// manager may have sifted its variables into any permutation — are rebuilt
// through ITE instead of the linear constructor.
func (m *Manager) ImportShifted(data []byte, from, delta int) ([]Node, error) {
	d, storedVars, blobOrder, err := readHeader(data)
	if err != nil {
		return nil, err
	}
	count, err := d.uvarint("node count")
	if err != nil {
		return nil, err
	}
	// Every record is at least 3 bytes; reject counts the blob cannot hold
	// before allocating.
	if count > uint64(len(data))/3 {
		return nil, fmt.Errorf("bdd: import: node count %d exceeds blob size", count)
	}

	handles := make([]Node, count+1) // table ref -> handle in m; ref 0 = False
	levels := make([]int32, count+1) // blob level per ref (for ordering checks)
	levels[0] = maxLevel
	var w *Worker // lazy: only created when a record needs the ITE path
	for i := uint64(1); i <= count; i++ {
		rawLevel, err := d.uvarint("level")
		if err != nil {
			return nil, err
		}
		if rawLevel >= storedVars {
			return nil, fmt.Errorf("bdd: import: node %d level %d out of range [0,%d)", i, rawLevel, storedVars)
		}
		// Blob level -> exporter variable -> relocated variable index.
		v := int64(rawLevel)
		if blobOrder != nil {
			v = int64(blobOrder[rawLevel])
		}
		if from >= 0 && v >= int64(from) {
			v += int64(delta)
		}
		if v < 0 || v >= int64(m.numVars) {
			return nil, fmt.Errorf("bdd: import: node %d variable %d outside manager range [0,%d)", i, v, m.numVars)
		}
		lowRef, lowC, err := d.ref("low", i, i)
		if err != nil {
			return nil, err
		}
		highRef, highC, err := d.ref("high", i, i)
		if err != nil {
			return nil, err
		}
		if highC != 0 {
			return nil, fmt.Errorf("bdd: import: node %d has complemented high edge (non-canonical)", i)
		}
		if lowRef == highRef && lowC == 0 {
			return nil, fmt.Errorf("bdd: import: node %d has identical children (non-canonical)", i)
		}
		// Children must sit strictly deeper in the blob's variable order.
		if levels[lowRef] <= int32(rawLevel) || levels[highRef] <= int32(rawLevel) {
			return nil, fmt.Errorf("bdd: import: node %d violates variable ordering", i)
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

	nroots, err := d.uvarint("root count")
	if err != nil {
		return nil, err
	}
	if nroots > uint64(len(data)) {
		return nil, fmt.Errorf("bdd: import: root count %d exceeds blob size", nroots)
	}
	roots := make([]Node, nroots)
	for i := range roots {
		ref, c, err := d.ref("root", uint64(i), count+1)
		if err != nil {
			return nil, err
		}
		roots[i] = handles[ref] ^ Node(c)
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("bdd: import: %d trailing bytes", len(data)-d.off)
	}
	return roots, nil
}

// readHeader decodes a blob's magic, version, variable count and order
// section, leaving the decoder at the node table. blobOrder maps blob
// levels to the exporter's variable indices; it is nil for version 1,
// which predates reordering and means the identity. A malformed section
// (out-of-range entry, repeated variable) is a corrupt blob and errors like
// any other decode failure — store layers treat that as a cache miss,
// never a panic.
func readHeader(data []byte) (d decoder, storedVars uint64, blobOrder []int32, err error) {
	d = decoder{data: data}
	if len(data) < len(serializeMagic) || string(data[:len(serializeMagic)]) != serializeMagic {
		return d, 0, nil, fmt.Errorf("bdd: import: bad magic")
	}
	d.off = len(serializeMagic)
	version, err := d.uvarint("version")
	if err != nil {
		return d, 0, nil, err
	}
	if version != 1 && version != serializeVersion {
		return d, 0, nil, fmt.Errorf("bdd: import: unsupported format version %d", version)
	}
	if storedVars, err = d.uvarint("numVars"); err != nil {
		return d, 0, nil, err
	}
	if storedVars > math.MaxInt32 {
		return d, 0, nil, fmt.Errorf("bdd: import: numVars %d out of range", storedVars)
	}
	if version >= 2 {
		if storedVars > uint64(len(data)) {
			return d, 0, nil, fmt.Errorf("bdd: import: numVars %d exceeds blob size", storedVars)
		}
		blobOrder = make([]int32, storedVars)
		seen := make([]bool, storedVars)
		for l := range blobOrder {
			v, err := d.uvarint("order entry")
			if err != nil {
				return d, 0, nil, err
			}
			if v >= storedVars || seen[v] {
				return d, 0, nil, fmt.Errorf("bdd: import: order section is not a permutation of [0,%d)", storedVars)
			}
			seen[v] = true
			blobOrder[l] = int32(v)
		}
	}
	return d, storedVars, blobOrder, nil
}

// ExportedOrder returns the variable order an Export blob was written
// under — element l is the exporter's variable index at level l — without
// decoding its nodes. An importer that installs the same order before
// Import rebuilds the graph node for node through the linear constructor.
func ExportedOrder(data []byte) ([]int, error) {
	_, storedVars, blobOrder, err := readHeader(data)
	if err != nil {
		return nil, err
	}
	order := make([]int, storedVars)
	for l := range order {
		order[l] = l
		if blobOrder != nil {
			order[l] = int(blobOrder[l])
		}
	}
	return order, nil
}

// decoder reads bounded uvarints out of a blob without ever panicking.
type decoder struct {
	data []byte
	off  int
}

func (d *decoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bdd: import: truncated %s at offset %d", what, d.off)
	}
	d.off += n
	return v, nil
}

// ref reads an edge reference for the record at table position pos and
// validates that it stays under limit (the number of already-decoded
// entries for node records; count+1 for roots).
func (d *decoder) ref(what string, pos, limit uint64) (uint64, uint64, error) {
	v, err := d.uvarint(what)
	if err != nil {
		return 0, 0, err
	}
	ref, c := v>>1, v&1
	if ref >= limit {
		return 0, 0, fmt.Errorf("bdd: import: entry %d %s edge references out-of-range entry %d", pos, what, ref)
	}
	return ref, c, nil
}

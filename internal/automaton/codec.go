package automaton

import (
	"sort"

	"github.com/expresso-verify/expresso/internal/wire"
)

// Binary DFA format (version 1), used by the artifact store to persist
// symbolic AS paths. All integers are unsigned varints.
//
//	magic  "XDFA" (4 bytes)
//	version uvarint (currently 1)
//	nstates uvarint
//	start   uvarint
//	nstates × state records:
//	    accept uvarint (0 or 1)
//	    other  uvarint (default-transition target)
//	    ntrans uvarint
//	    ntrans × (symbol uvarint, target uvarint), sorted by symbol
//
// Decoding rebuilds the automaton through minimize(), so the result is
// always canonical (and its signature sealed) regardless of how the blob
// numbered its states.
const (
	codecMagic   = "XDFA"
	codecVersion = 1
)

// Export serializes the automaton. The encoding is deterministic: states
// keep their canonical minimized numbering and transitions are sorted by
// symbol.
func (a *Automaton) Export() []byte {
	e := make(wire.Enc, 0, 16+8*len(a.states))
	e.Magic(codecMagic, codecVersion)
	e.U(uint64(len(a.states)))
	e.U(uint64(a.start))
	for _, st := range a.states {
		e.B(st.accept)
		e.U(uint64(st.other))
		syms := make([]Symbol, 0, len(st.trans))
		for s := range st.trans {
			syms = append(syms, s)
		}
		sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
		e.U(uint64(len(syms)))
		for _, s := range syms {
			e.U(uint64(s))
			e.U(uint64(st.trans[s]))
		}
	}
	return e
}

// Import decodes an Export blob. Arbitrary input yields an error or a valid
// minimal automaton — never a panic: every state index is range-checked and
// the decoded machine is re-minimized, which also seals its signature.
func Import(data []byte) (*Automaton, error) {
	d := wire.NewDec("automaton: import", data)
	d.Magic(codecMagic, codecVersion)
	nstates := d.Count("state", 3) // flags, default target, transition count
	start := d.U()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if start >= uint64(nstates) { // which also rejects an automaton with no state
		return nil, d.Failf("start state %d out of range [0,%d)", start, nstates)
	}
	a := &Automaton{states: make([]state, nstates), start: int(start)}
	for i := range a.states {
		accept, other := d.B(), d.U()
		ntrans := d.Count("transition", 2) // symbol, target
		if err := d.Err(); err != nil {
			return nil, err
		}
		if other >= uint64(nstates) {
			return nil, d.Failf("state %d default target %d out of range", i, other)
		}
		st := state{trans: make(map[Symbol]int, ntrans), other: int(other), accept: accept}
		prev := int64(-1)
		for j := 0; j < ntrans; j++ {
			sym, tgt := d.U(), d.U()
			if sym > uint64(^Symbol(0)) || int64(sym) <= prev {
				return nil, d.Failf("state %d symbols not strictly sorted", i)
			}
			prev = int64(sym)
			if tgt >= uint64(nstates) {
				return nil, d.Failf("state %d target %d out of range", i, tgt)
			}
			st.trans[Symbol(sym)] = int(tgt)
		}
		a.states[i] = st
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return a.minimize(), nil
}

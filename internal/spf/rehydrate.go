package spf

import "github.com/expresso-verify/expresso/internal/epvp"

// VarBase reports the first data-plane advertiser variable index of the
// result. The artifact store records it so a persisted SPF result can be
// relocated when it is imported into a manager whose data-plane block was
// allocated at a different offset.
func (r *Result) VarBase() int { return r.varBase }

// Rehydrate reconstructs a Result around an engine from persisted parts:
// the FIBs, PECs, and per-neighbor variable statistics decoded by the
// artifact store, with every BDD handle already imported into eng's
// manager and varBase naming the start of the 33×n data-plane variable
// block those handles use. The result is immediately usable by the
// forwarding property checks, exactly like one produced by RunTraced.
func Rehydrate(eng *epvp.Engine, varBase int, fibs map[string]*FIB, pecs []*PEC, dataVars map[string]int) *Result {
	return &Result{
		FIBs:                fibs,
		PECs:                pecs,
		DataVarsPerNeighbor: dataVars,
		eng:                 eng,
		varBase:             varBase,
	}
}

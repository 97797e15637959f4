package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/expresso-verify/expresso/internal/altenc"
	"github.com/expresso-verify/expresso/internal/automaton"
	"github.com/expresso-verify/expresso/internal/community"
	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/netgen"
)

// fig7 compares the symbolic-community and symbolic-AS-path encodings
// (atomic predicates versus automata), reproducing Figure 7's finding:
// atomic predicates win for communities, automata win for AS paths (the
// explicit "atomic predicate"-style path encoding blows up, the paper's
// one-hour timeout).
//
// The comparison replays the operation workload Expresso performs per
// dataset — one import (add community / tag test) and one export (match /
// filter) per session, times the EPVP round count — against each encoding.
func fig7(w io.Writer, cfg Config) error {
	fmt.Fprintf(w, "7a: symbolic community encodings\n")
	fmt.Fprintf(w, "%-11s %18s %14s\n", "dataset", "atomic-predicate", "automaton")
	sets := csp(cfg, "", 0)

	// The CSP configurations mention one tag community; with the catch-all
	// that is 2 atoms. Use the real atom universe of the old snapshot.
	text, err := netgen.Dataset("region1", 0)
	if err != nil {
		return err
	}
	devices, err := config.ParseConfigs(text)
	if err != nil {
		return err
	}
	atoms := community.ComputeAtoms(devices)
	tagAtom := atoms.AtomOf(netgen.TagCommunity())

	for _, d := range sets {
		ops := d.sessions * d.rounds

		// Atomic predicates (the BDD encoding of internal/community).
		start := time.Now()
		space := community.NewSpace(atoms)
		list := space.All()
		for i := 0; i < ops; i++ {
			list = space.Add(list, tagAtom)
			_ = space.M.And(list, space.MatchAny([]int{tagAtom}))
			list = space.Delete(list, []int{tagAtom})
		}
		apTime := time.Since(start)

		// Automaton encoding (altenc.CommAutomaton).
		start = time.Now()
		ca := altenc.AllCommAutomaton(atoms.Count)
		for i := 0; i < ops; i++ {
			ca = ca.Add(tagAtom)
			_ = ca.MatchAny([]int{tagAtom})
		}
		autoTime := time.Since(start)

		fmt.Fprintf(w, "%-11s %17.4fs %13.4fs\n", d.name, apTime.Seconds(), autoTime.Seconds())
	}

	fmt.Fprintf(w, "\n7b: symbolic AS path encodings\n")
	fmt.Fprintf(w, "%-11s %14s %18s\n", "dataset", "automaton", "atomic-predicate")
	const pathBudget = 200000 // member cap standing in for the 1-hour timeout
	for _, d := range sets {
		// Automaton encoding: a wildcard path prepended and filtered once
		// per session per round — Expresso's real workload.
		start := time.Now()
		for i := 0; i < d.sessions*d.rounds; i++ {
			p := automaton.FromWord([]automaton.Symbol{automaton.Symbol(1000 + i%d.sessions)}).
				Concat(automaton.AnyString())
			p = automaton.FromWord([]automaton.Symbol{100}).Concat(p)
			_ = p.ShortestLength()
		}
		autoTime := time.Since(start)

		// Explicit path-set ("atomic predicate") encoding: materializing
		// the wildcard over the dataset's AS alphabet overflows.
		alphabet := make([]uint32, d.sessions)
		for i := range alphabet {
			alphabet[i] = uint32(1000 + i)
		}
		start = time.Now()
		_, err := altenc.ExpandWildcard(alphabet, 4, pathBudget)
		apCell := fmt.Sprintf("%.4fs", time.Since(start).Seconds())
		if err != nil {
			apCell = fmt.Sprintf(">%.2fs TIMEOUT", time.Since(start).Seconds())
		}
		fmt.Fprintf(w, "%-11s %13.4fs %18s\n", d.name, autoTime.Seconds(), apCell)
	}
	fmt.Fprintf(w, "(paper: atomic predicates faster for communities; AS-path atomic predicates time out after 1 hour)\n")
	return nil
}

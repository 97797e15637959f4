package expresso

import (
	"context"
	"sort"
)

// GateResult is the outcome of gating a config change: the violations of
// the new tree partitioned by whether the old tree already had them. The
// CI contract is ExitCode: a change that introduces no new violations
// passes, even when pre-existing violations remain — a gate that fails on
// inherited debt blocks every commit and gets disabled; one that fails
// only on regressions stays on.
type GateResult struct {
	// OldDigest / NewDigest are the ReportDigest of each tree under the
	// gate's options: its canonical config digest chained with the options
	// key. Patch is the canonical delta between the trees.
	OldDigest string `json:"old_digest"`
	NewDigest string `json:"new_digest"`
	Patch     Patch  `json:"patch"`
	// New are violations present in the new tree but not the old one —
	// the regressions the gate fails on. Fixed are old violations the
	// change repaired; Unchanged persist on both sides. Identity is the
	// violation's (Kind, Node, Detail) — the same key the analysis
	// dedupe uses.
	New       []Violation `json:"new,omitempty"`
	Fixed     []Violation `json:"fixed,omitempty"`
	Unchanged []Violation `json:"unchanged,omitempty"`
	// OldReport / NewReport are the full verification reports.
	OldReport *Report `json:"old_report,omitempty"`
	NewReport *Report `json:"new_report,omitempty"`
}

// HasNewViolations reports whether the change introduced any violation.
func (g *GateResult) HasNewViolations() bool { return len(g.New) > 0 }

// ExitCode is the process exit status `expresso gate` maps the result to:
// 0 when the change introduces no new violations (fixed-only and
// no-change both pass), 1 otherwise. (The CLI reserves 2 for operational
// errors — unparsable configs, bad flags.)
func (g *GateResult) ExitCode() int {
	if g.HasNewViolations() {
		return 1
	}
	return 0
}

// violationKey is the identity violations are compared under — the same
// (Kind, Node, Detail) key the property analysis dedupes on. Cond, Path,
// and the other symbolic fields are representation, not identity.
func violationKey(v Violation) string {
	return string(v.Kind) + "|" + v.Node + "|" + v.Detail
}

// Gate verifies two configuration trees and partitions the new tree's
// violations against the old tree's: the delta-native CI check behind
// `expresso gate OLD NEW`. The old tree is registered as a baseline in a
// fresh Verifier and the new tree runs as a delta against it, so the
// second verification pays only the changed routers' closure; the
// comparison itself is provenance-independent (warm-started reports are
// byte-identical to cold ones).
func Gate(ctx context.Context, oldText, newText string, opts Options) (*GateResult, error) {
	v := NewVerifier(VerifierConfig{})
	oldRep, _, err := v.RegisterBaseline(ctx, "gate-old", oldText, opts)
	if err != nil {
		return nil, err
	}
	newRep, _, err := v.VerifyTextFrom(ctx, "gate-old", newText, opts)
	if err != nil {
		return nil, err
	}
	g := &GateResult{
		OldDigest: ReportDigest(oldText, opts),
		NewDigest: ReportDigest(newText, opts),
		Patch:     DiffConfigs(oldText, newText),
		OldReport: oldRep,
		NewReport: newRep,
	}
	oldKeys := map[string]bool{}
	for _, v := range oldRep.Violations {
		oldKeys[violationKey(v)] = true
	}
	newKeys := map[string]bool{}
	for _, v := range newRep.Violations {
		newKeys[violationKey(v)] = true
		if oldKeys[violationKey(v)] {
			g.Unchanged = append(g.Unchanged, v)
		} else {
			g.New = append(g.New, v)
		}
	}
	for _, v := range oldRep.Violations {
		if !newKeys[violationKey(v)] {
			g.Fixed = append(g.Fixed, v)
		}
	}
	sortViolations(g.New)
	sortViolations(g.Fixed)
	sortViolations(g.Unchanged)
	return g, nil
}

func sortViolations(vs []Violation) {
	sort.Slice(vs, func(i, j int) bool { return violationKey(vs[i]) < violationKey(vs[j]) })
}

package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// verdict of one metric x workload row of a comparison.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
	verdictChanged    = "CHANGED"
	verdictInfo       = "-"
)

// judge compares a metric's runs in the old and the new set. A bounded
// metric regresses when its median worsens by more than both the relative
// bound and the absolute floor. When it does not, but either set's own
// run-to-run spread is wider than the bound, the row is unresolved — the
// sets cannot tell "unchanged" from "a bit worse" — unless every new run
// beats every old one. Exact metrics must repeat; the rest are shown only.
func judge(m metricDef, old, new []float64) string {
	a, b := median(old), median(new)
	worse := b - a
	if m.Better == "higher" {
		worse = a - b
	}
	switch {
	case m.Exact:
		if a != b {
			return verdictChanged
		}
		return verdictOK
	case m.Bound == 0:
		return verdictInfo
	}
	if worse > math.Max(m.Bound*math.Abs(a), m.Floor) {
		return verdictRegressed
	}
	allBetter := true
	for _, x := range old {
		for _, y := range new {
			if (m.Better == "higher") != (y > x) || x == y {
				allBetter = false
			}
		}
	}
	if allBetter {
		return verdictBetter
	}
	if spread(old) > m.Bound || spread(new) > m.Bound {
		return verdictUnresolved
	}
	return verdictOK
}

// compareFiles prints, per workload and metric, both medians, the
// difference and the bound, and returns 1 when any row is a breach: a
// regression, a changed exact count, or a failed operation in either set.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	oldF, err := readResultFile(oldPath)
	if err != nil {
		return fatal(err)
	}
	newF, err := readResultFile(newPath)
	if err != nil {
		return fatal(err)
	}
	if oldF.Traced != newF.Traced {
		return fatal(fmt.Errorf("%s is a %s set and %s is not: nothing to compare", oldPath, kindOf(oldF), newPath))
	}
	for _, f := range []*resultFile{oldF, newF} {
		if f.Noisy {
			fmt.Fprintln(w, "note:", f.Env.noisyNote())
		}
	}
	defs := endToEnd
	if oldF.Traced {
		defs = perLayer
	}
	newByName := map[string]workloadResult{}
	for _, wl := range newF.Workloads {
		newByName[wl.Name] = wl
	}
	breaches := 0
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told\tnew\tdelta\tallowed\tverdict")
	for _, oldW := range oldF.Workloads {
		newW, ok := newByName[oldW.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\t(missing from %s)\t\t\t\t\t\t%s\n", oldW.Name, newPath, verdictChanged)
			breaches++
			continue
		}
		for _, m := range defs {
			o, n := oldW.values(m.Name), newW.values(m.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			verdict := judge(m, o, n)
			a, b := median(o), median(n)
			allowed := "-"
			switch {
			case m.Exact:
				allowed = "exact"
			case m.Bound > 0:
				allowed = fmt.Sprintf("%.0f%% / %g", 100*m.Bound, m.Floor)
			}
			pct := ""
			if a != 0 {
				pct = fmt.Sprintf(" (%+.1f%%)", 100*(b-a)/math.Abs(a))
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%+.4f%s\t%s\t%s\n", oldW.Name, m.Name, m.Unit, a, b, b-a, pct, allowed, verdict)
			if verdict == verdictRegressed || verdict == verdictChanged {
				breaches++
			}
		}
		if f := oldW.failed() + newW.failed(); f > 0 {
			fmt.Fprintf(tw, "%s\terror_rate\tfailed\t%d\t%d\t\t0\t%s\n", oldW.Name, oldW.failed(), newW.failed(), verdictRegressed)
			breaches++
		}
	}
	if err := tw.Flush(); err != nil {
		return fatal(err)
	}
	if breaches > 0 {
		fmt.Fprintf(w, "%d breach(es)\n", breaches)
		return 1
	}
	return 0
}

func kindOf(f *resultFile) string {
	if f.Traced {
		return "traced"
	}
	return "timed"
}

// Package traceview analyzes the JSON trace documents the telemetry
// package produces (schema expresso-trace/1): per-stage summaries,
// regression attribution between two traces of the same workload, and
// the largest-BDD-levels view that feeds variable-reordering and
// compression work. It is the library behind the `expresso trace`
// subcommand family and deliberately imports only the telemetry package,
// so it can load traces produced by any engine version sharing the
// schema.
package traceview

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"github.com/expresso-verify/expresso/internal/telemetry"
)

// Load reads and validates one trace document.
func Load(path string) (*telemetry.Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tr telemetry.Trace
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, fmt.Errorf("traceview: %s: %w", path, err)
	}
	if tr.Schema != telemetry.SchemaVersion {
		return nil, fmt.Errorf("traceview: %s: unsupported schema %q (want %q)", path, tr.Schema, telemetry.SchemaVersion)
	}
	return &tr, nil
}

// ns renders a nanosecond count as a human duration.
func ns(v int64) string { return time.Duration(v).String() }

// signedNS renders a delta with an explicit sign, so gains and losses
// read apart in the diff table.
func signedNS(v int64) string {
	if v >= 0 {
		return "+" + ns(v)
	}
	return ns(v)
}

// Summarize writes the per-stage table — duration, cache provenance and
// warm-start seed, share of total — followed by the EPVP convergence
// aggregates (rounds, BDD growth, reclaim effectiveness, merge-memo
// hits), the SPF event counts, and the watermark footer when present.
func Summarize(w io.Writer, tr *telemetry.Trace) {
	fmt.Fprintf(w, "trace %s  workers=%d  duration=%s\n", tr.Digest, tr.Workers, ns(tr.Duration))
	if tr.Mode != "" {
		fmt.Fprintf(w, "mode %s  options %s\n", tr.Mode, tr.Options)
	}
	var spanTotal int64
	for _, sp := range tr.Spans {
		spanTotal += sp.Duration
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "STAGE\tSTATUS\tSEED\tNOTE\tDURATION\tSHARE")
	for _, sp := range tr.Spans {
		share := "-"
		if spanTotal > 0 {
			share = fmt.Sprintf("%.1f%%", 100*float64(sp.Duration)/float64(spanTotal))
		}
		seed := sp.Seed
		if seed == "" {
			seed = "-"
		}
		note := sp.Note
		if note == "" {
			note = "-"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.12s\t%s\t%s\t%s\n", sp.Name, sp.Status, seed, note, ns(sp.Duration), share)
	}
	tw.Flush()

	var growth, reclaims, freed, pause int64
	var mergeHits, mergeLookups int64
	for _, r := range tr.EPVPRounds {
		growth += r.BDDGrowth
		mergeHits += r.MergeHits
		mergeLookups += r.MergeHits + r.MergeMisses
		reclaims += r.Reclaims
		freed += r.ReclaimedNodes
		pause += r.ReclaimNS
	}
	preSPF := tr.PreSPFSweep
	if preSPF != nil {
		reclaims += preSPF.Sweeps
		freed += preSPF.SweptNodes
		pause += preSPF.SweepNS
	}
	if n := len(tr.EPVPRounds); n > 0 {
		fmt.Fprintf(w, "epvp: %d rounds, %d nodes hash-consed, %d live after last round\n",
			n, growth, tr.EPVPRounds[n-1].BDDNodes)
	}
	switch {
	case reclaims > 0:
		fmt.Fprintf(w, "reclaim: %d sweeps freed %d nodes in %s", reclaims, freed, ns(pause))
		if growth > 0 {
			fmt.Fprintf(w, " (%.1f%% of round growth)", 100*float64(freed)/float64(growth))
		}
		if preSPF != nil {
			fmt.Fprintf(w, ", %d of them before SPF", preSPF.Sweeps)
		}
		fmt.Fprintln(w)
	case len(tr.EPVPRounds) > 0:
		fmt.Fprintf(w, "reclaim: no sweeps triggered\n")
	}
	if len(tr.EPVPRounds) > 0 {
		fmt.Fprintf(w, "epvp merge memo: %d hits of %d lookups\n", mergeHits, mergeLookups)
	}
	if n := len(tr.SPFFIBs); n > 0 {
		fmt.Fprintf(w, "spf: %d FIBs, %d forward traversals, %d coalesce passes\n",
			n, len(tr.SPFForwards), len(tr.PECCoalesce))
	}
	if o := tr.SPFOrder; o != nil {
		fmt.Fprintf(w, "spf order: length blocks top to bottom %v; %d data-plane variables referenced; conversions %d computed, %d reused\n",
			o.Lengths, o.VarsUsed, o.Converted, o.Reused)
	}
	if wm := tr.Watermark; wm != nil {
		fmt.Fprintf(w, "watermark: peak %d live nodes (%d bytes) over %d samples; end %d nodes, complement share %.3f\n",
			wm.PeakLiveNodes, wm.PeakLiveBytes, wm.Samples, wm.EndLiveNodes, wm.ComplementShare)
	}
}

// StageDelta compares one pipeline stage across two traces.
type StageDelta struct {
	Stage     string  `json:"stage"`
	OldStatus string  `json:"old_status,omitempty"`
	NewStatus string  `json:"new_status,omitempty"`
	OldNS     int64   `json:"old_ns"`
	NewNS     int64   `json:"new_ns"`
	DeltaNS   int64   `json:"delta_ns"`
	Ratio     float64 `json:"ratio,omitempty"` // new/old, 0 when old is 0
	// Regressed marks the stage as slower beyond the diff threshold.
	Regressed bool `json:"regressed,omitempty"`
}

// RoundDelta compares one EPVP round's symbolic cost across two traces
// (matched by round number).
type RoundDelta struct {
	Round       int   `json:"round"`
	GrowthOld   int64 `json:"growth_old"`
	GrowthNew   int64 `json:"growth_new"`
	GrowthDelta int64 `json:"growth_delta"`
	DeltaNS     int64 `json:"delta_ns"`
}

// DiffReport is the stage-by-stage regression attribution between two
// traces of the same workload.
type DiffReport struct {
	Threshold float64      `json:"threshold"`
	OldNS     int64        `json:"old_ns"`
	NewNS     int64        `json:"new_ns"`
	Stages    []StageDelta `json:"stages"`
	// Rounds holds per-round BDD-growth deltas when both traces recorded
	// EPVP rounds; extra rounds on either side appear with the missing
	// side zeroed.
	Rounds []RoundDelta `json:"rounds,omitempty"`
	// Worst names the regressed stage with the largest absolute slowdown
	// ("" when nothing regressed); Regressed is the exit-1 signal.
	Worst     string `json:"worst,omitempty"`
	Regressed bool   `json:"regressed"`
	// PeakDelta is the watermark peak-live-node change (new - old) when
	// both traces carry a watermark footer.
	PeakDelta int64 `json:"peak_delta,omitempty"`
}

// regressFloorNS is the absolute slowdown below which a stage is never
// flagged, whatever the ratio: sub-millisecond stages jitter by factors
// run to run without meaning anything.
const regressFloorNS = int64(time.Millisecond)

// Diff attributes the performance difference between two traces of the
// same workload to pipeline stages. A stage regresses when it is slower
// by more than threshold (a fraction: 0.25 = 25%) AND by more than an
// absolute millisecond floor; a stage present in only one trace is
// compared against zero, so a provenance change (hit → miss) shows up as
// the miss's full cost. threshold <= 0 defaults to 0.25.
func Diff(oldTr, newTr *telemetry.Trace, threshold float64) *DiffReport {
	if threshold <= 0 {
		threshold = 0.25
	}
	rep := &DiffReport{Threshold: threshold, OldNS: oldTr.Duration, NewNS: newTr.Duration}
	oldSpans := map[string]telemetry.Span{}
	var order []string
	for _, sp := range oldTr.Spans {
		if _, ok := oldSpans[sp.Name]; !ok {
			order = append(order, sp.Name)
		}
		oldSpans[sp.Name] = sp
	}
	newSpans := map[string]telemetry.Span{}
	for _, sp := range newTr.Spans {
		if _, ok := newSpans[sp.Name]; !ok {
			if _, seen := oldSpans[sp.Name]; !seen {
				order = append(order, sp.Name)
			}
		}
		newSpans[sp.Name] = sp
	}
	var worstDelta int64
	for _, name := range order {
		o, n := oldSpans[name], newSpans[name]
		d := StageDelta{
			Stage:     name,
			OldStatus: o.Status,
			NewStatus: n.Status,
			OldNS:     o.Duration,
			NewNS:     n.Duration,
			DeltaNS:   n.Duration - o.Duration,
		}
		if o.Duration > 0 {
			d.Ratio = float64(n.Duration) / float64(o.Duration)
		}
		if d.DeltaNS > regressFloorNS && float64(d.DeltaNS) > threshold*float64(o.Duration) {
			d.Regressed = true
			rep.Regressed = true
			if d.DeltaNS > worstDelta {
				worstDelta = d.DeltaNS
				rep.Worst = name
			}
		}
		rep.Stages = append(rep.Stages, d)
	}
	rounds := len(oldTr.EPVPRounds)
	if len(newTr.EPVPRounds) > rounds {
		rounds = len(newTr.EPVPRounds)
	}
	for i := 0; i < rounds; i++ {
		var o, n telemetry.RoundEvent
		if i < len(oldTr.EPVPRounds) {
			o = oldTr.EPVPRounds[i]
		}
		if i < len(newTr.EPVPRounds) {
			n = newTr.EPVPRounds[i]
		}
		rep.Rounds = append(rep.Rounds, RoundDelta{
			Round:       i + 1,
			GrowthOld:   o.BDDGrowth,
			GrowthNew:   n.BDDGrowth,
			GrowthDelta: n.BDDGrowth - o.BDDGrowth,
			DeltaNS:     n.Duration - o.Duration,
		})
	}
	if oldTr.Watermark != nil && newTr.Watermark != nil {
		rep.PeakDelta = newTr.Watermark.PeakLiveNodes - oldTr.Watermark.PeakLiveNodes
	}
	return rep
}

// WriteDiff renders a DiffReport as the human table `expresso trace
// diff` prints (use JSON marshaling for machines).
func WriteDiff(w io.Writer, rep *DiffReport) {
	fmt.Fprintf(w, "total: %s -> %s (%s)\n", ns(rep.OldNS), ns(rep.NewNS), signedNS(rep.NewNS-rep.OldNS))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "STAGE\tOLD\tNEW\tDELTA\tRATIO\tPROVENANCE\tFLAG")
	for _, d := range rep.Stages {
		ratio := "-"
		if d.Ratio > 0 {
			ratio = fmt.Sprintf("%.2fx", d.Ratio)
		}
		prov := d.OldStatus
		if d.NewStatus != d.OldStatus {
			prov = d.OldStatus + "->" + d.NewStatus
		}
		flag := ""
		if d.Regressed {
			flag = "REGRESSED"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			d.Stage, ns(d.OldNS), ns(d.NewNS), signedNS(d.DeltaNS), ratio, prov, flag)
	}
	tw.Flush()
	var growthDelta int64
	for _, r := range rep.Rounds {
		growthDelta += r.GrowthDelta
	}
	if len(rep.Rounds) > 0 {
		fmt.Fprintf(w, "epvp: %d rounds compared, BDD growth delta %+d nodes\n", len(rep.Rounds), growthDelta)
	}
	if rep.PeakDelta != 0 {
		fmt.Fprintf(w, "watermark: peak live nodes %+d\n", rep.PeakDelta)
	}
	if rep.Regressed {
		fmt.Fprintf(w, "regression: %s (+%s beyond the %.0f%% threshold)\n",
			rep.Worst, ns(stageDelta(rep, rep.Worst)), 100*rep.Threshold)
	} else {
		fmt.Fprintf(w, "no stage regressed beyond the %.0f%% threshold\n", 100*rep.Threshold)
	}
}

func stageDelta(rep *DiffReport, stage string) int64 {
	for _, d := range rep.Stages {
		if d.Stage == stage {
			return d.DeltaNS
		}
	}
	return 0
}

// Top writes the n largest BDD levels by live nodes from the trace's
// watermark footer. It errors when the trace has no watermark section
// (produced before PR 9, or the run never built a BDD).
func Top(w io.Writer, tr *telemetry.Trace, n int) error {
	wm := tr.Watermark
	if wm == nil {
		return fmt.Errorf("traceview: trace has no watermark section (older schema producer?)")
	}
	fmt.Fprintf(w, "peak %d live nodes (%d bytes), end %d; %d levels recorded\n",
		wm.PeakLiveNodes, wm.PeakLiveBytes, wm.EndLiveNodes, len(wm.TopLevels))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "LEVEL\tNODES\tBYTES\tSHARE")
	for i, l := range wm.TopLevels {
		if n > 0 && i >= n {
			break
		}
		share := "-"
		if wm.EndLiveNodes > 0 {
			share = fmt.Sprintf("%.2f%%", 100*float64(l.Nodes)/float64(wm.EndLiveNodes))
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%s\n", l.Level, l.Nodes, l.Bytes, share)
	}
	return tw.Flush()
}

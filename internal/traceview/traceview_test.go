package traceview

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/expresso-verify/expresso/internal/telemetry"
)

func trace(spans ...telemetry.Span) *telemetry.Trace {
	tr := &telemetry.Trace{Schema: telemetry.SchemaVersion, Spans: spans}
	for _, sp := range spans {
		tr.Duration += sp.Duration
	}
	return tr
}

func span(name, status string, ms int64) telemetry.Span {
	return telemetry.Span{Name: name, Status: status, Duration: ms * 1e6}
}

func TestDiffAttributesRegression(t *testing.T) {
	old := trace(span("load", "miss", 5), span("src", "miss", 200), span("spf", "miss", 100))
	niw := trace(span("load", "miss", 5), span("src", "miss", 210), span("spf", "miss", 450))
	rep := Diff(old, niw, 0.25)
	if !rep.Regressed || rep.Worst != "spf" {
		t.Fatalf("want spf regression, got worst=%q regressed=%v", rep.Worst, rep.Regressed)
	}
	for _, d := range rep.Stages {
		switch d.Stage {
		case "spf":
			if !d.Regressed {
				t.Fatalf("spf not flagged: %+v", d)
			}
		default:
			// src grew 5% — inside the 25% threshold; load is under the
			// absolute floor.
			if d.Regressed {
				t.Fatalf("stage %s wrongly flagged: %+v", d.Stage, d)
			}
		}
	}
}

func TestDiffProvenanceChangeComparedAgainstZero(t *testing.T) {
	old := trace(span("src", "hit", 0))
	niw := trace(span("src", "miss", 300))
	rep := Diff(old, niw, 0.25)
	if !rep.Regressed || rep.Worst != "src" {
		t.Fatalf("hit->miss should attribute to src: %+v", rep)
	}
}

func TestDiffNoRegressionUnderThreshold(t *testing.T) {
	old := trace(span("src", "miss", 200))
	niw := trace(span("src", "miss", 240)) // +20% < 25%
	if rep := Diff(old, niw, 0.25); rep.Regressed {
		t.Fatalf("20%% growth flagged at a 25%% threshold: %+v", rep)
	}
	// The same pair regresses at a 10% threshold.
	if rep := Diff(old, niw, 0.10); !rep.Regressed || rep.Worst != "src" {
		t.Fatalf("20%% growth not flagged at a 10%% threshold: %+v", rep)
	}
}

func TestDiffRoundAndWatermarkDeltas(t *testing.T) {
	old := trace(span("src", "miss", 100))
	old.EPVPRounds = []telemetry.RoundEvent{{Round: 1, BDDGrowth: 1000, Duration: 10e6}}
	old.Watermark = &telemetry.Watermark{PeakLiveNodes: 5000}
	niw := trace(span("src", "miss", 110))
	niw.EPVPRounds = []telemetry.RoundEvent{
		{Round: 1, BDDGrowth: 1500, Duration: 12e6},
		{Round: 2, BDDGrowth: 300, Duration: 3e6},
	}
	niw.Watermark = &telemetry.Watermark{PeakLiveNodes: 7000}
	rep := Diff(old, niw, 0.25)
	if len(rep.Rounds) != 2 {
		t.Fatalf("rounds = %d, want 2 (longer side)", len(rep.Rounds))
	}
	if rep.Rounds[0].GrowthDelta != 500 || rep.Rounds[1].GrowthDelta != 300 {
		t.Fatalf("growth deltas = %+v", rep.Rounds)
	}
	if rep.PeakDelta != 2000 {
		t.Fatalf("peak delta = %d, want 2000", rep.PeakDelta)
	}
}

func TestLoadRejectsUnknownSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	raw, _ := json.Marshal(telemetry.Trace{Schema: "expresso-trace/999"})
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "unsupported schema") {
		t.Fatalf("want schema error, got %v", err)
	}
}

func TestLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ok.json")
	tr := trace(span("load", "miss", 1), span("src", "warm", 50))
	tr.Watermark = &telemetry.Watermark{
		PeakLiveNodes: 42, PeakLiveBytes: 504, Samples: 3, EndLiveNodes: 40,
		TopLevels: []telemetry.BDDLevel{{Level: 7, Nodes: 10, Bytes: 120}},
	}
	tr.SPFOrder = &telemetry.SPFOrderEvent{Lengths: []int{24, 32, 31}, VarsUsed: 17, Converted: 5, Reused: 40}
	raw, _ := json.Marshal(tr)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Watermark == nil || got.Watermark.PeakLiveNodes != 42 || len(got.Watermark.TopLevels) != 1 {
		t.Fatalf("watermark did not round-trip: %+v", got.Watermark)
	}
	var sum strings.Builder
	Summarize(&sum, got)
	for _, want := range []string{"load", "src", "warm", "watermark: peak 42",
		"spf order: length blocks top to bottom [24 32 31]; 17 data-plane variables referenced; length-slice conversions 5 computed, 40 reused"} {
		if !strings.Contains(sum.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, sum.String())
		}
	}
	var top strings.Builder
	if err := Top(&top, got, 5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(top.String(), "7") {
		t.Fatalf("top missing level 7:\n%s", top.String())
	}
}

func TestTopWithoutWatermarkErrors(t *testing.T) {
	var b strings.Builder
	if err := Top(&b, trace(span("src", "miss", 1)), 5); err == nil {
		t.Fatal("want error for a trace without a watermark section")
	}
}

func TestSummarizeMergeMemo(t *testing.T) {
	tr := trace(span("src", "miss", 10))
	tr.EPVPRounds = []telemetry.RoundEvent{
		{Round: 1, MergeMisses: 7, BDDGrowth: 100},
		{Round: 2, MergeHits: 5, MergeMisses: 2, BDDGrowth: 50, Reclaims: 1, ReclaimedNodes: 30},
	}
	var sum strings.Builder
	Summarize(&sum, tr)
	want := "reclaim: 1 sweeps freed 30 nodes in 0s (20.0% of round growth)\nepvp merge memo: 5 hits of 14 lookups\n"
	if !strings.Contains(sum.String(), want) {
		t.Fatalf("summary missing %q:\n%s", want, sum.String())
	}
}

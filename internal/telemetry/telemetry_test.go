package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilTracerIsSafe checks the disabled path: every method of a nil
// *Tracer must be a no-op, since the engine threads a possibly-nil tracer
// through its hot loops.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports Enabled")
	}
	tr.SetMeta("d", "m", "o", 4)
	tr.Span("src", "miss", "k", "", "", time.Second)
	tr.Round(RoundEvent{Round: 1})
	tr.FIB(FIBEvent{Router: "r1"})
	tr.Forward(ForwardEvent{Router: "r1"})
	tr.Coalesce(CoalesceEvent{Phase: "internal"})
	if got := tr.Finish(); got != nil {
		t.Fatalf("nil tracer Finish = %+v, want nil", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("nil tracer WriteJSON: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil tracer wrote %q", buf.String())
	}
}

// TestTracerRecords checks an enabled tracer accumulates events and
// freezes them into a schema-stamped JSON document.
func TestTracerRecords(t *testing.T) {
	tr := NewTracer()
	if !tr.Enabled() {
		t.Fatal("fresh tracer not enabled")
	}
	tr.SetMeta("digest123", "full", "props=leak", 2)
	tr.Span("load", "miss", "k1", "", "", 3*time.Millisecond)
	tr.Span("src", "warm", "k2", "abc123", "warm-started", 5*time.Millisecond)
	tr.Round(RoundEvent{Round: 1, Recomputed: 7, RIBChanges: 3, BDDNodes: 100, BDDGrowth: 100})
	tr.Round(RoundEvent{Round: 2, Recomputed: 3, Frontier: 3})
	tr.FIB(FIBEvent{Router: "r1", Entries: 4, Ports: 2})
	tr.Forward(ForwardEvent{Router: "r1", PECs: 6})
	tr.Coalesce(CoalesceEvent{Phase: "internal", Raw: 6, Coalesced: 4})

	trace := tr.Finish()
	if trace.Schema != SchemaVersion {
		t.Errorf("schema = %q, want %q", trace.Schema, SchemaVersion)
	}
	if trace.Digest != "digest123" || trace.Mode != "full" || trace.Workers != 2 {
		t.Errorf("meta not recorded: %+v", trace)
	}
	if len(trace.Spans) != 2 || trace.Spans[1].Status != "warm" {
		t.Errorf("spans = %+v", trace.Spans)
	}
	if len(trace.EPVPRounds) != 2 || trace.EPVPRounds[0].Round != 1 || trace.EPVPRounds[1].Round != 2 {
		t.Errorf("rounds = %+v", trace.EPVPRounds)
	}
	if trace.Duration <= 0 {
		t.Errorf("duration = %d, want > 0", trace.Duration)
	}
	// Finish is idempotent: the duration is stamped once.
	d := trace.Duration
	if again := tr.Finish(); again.Duration != d {
		t.Errorf("second Finish restamped duration: %d != %d", again.Duration, d)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back Trace
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("trace JSON does not round-trip: %v", err)
	}
	if back.Schema != SchemaVersion || len(back.EPVPRounds) != 2 || len(back.SPFFIBs) != 1 {
		t.Errorf("round-tripped trace lost data: %+v", back)
	}
}

// TestTracerConcurrent exercises concurrent recording (SPF fans events
// out from worker goroutines); run under -race this checks the locking.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.FIB(FIBEvent{Router: "r", Entries: j})
				tr.Forward(ForwardEvent{Router: "r", PECs: j})
			}
		}(i)
	}
	wg.Wait()
	trace := tr.Finish()
	if len(trace.SPFFIBs) != 800 || len(trace.SPFForwards) != 800 {
		t.Errorf("lost events: %d FIBs, %d forwards", len(trace.SPFFIBs), len(trace.SPFForwards))
	}
}

// TestWorkersFromEnv checks the centralized EXPRESSO_WORKERS parser.
func TestWorkersFromEnv(t *testing.T) {
	cases := []struct {
		value string
		want  int
	}{
		{"", 0},
		{"4", 4},
		{"1", 1},
		{"0", 0},    // non-positive → unset
		{"-2", 0},   // non-positive → unset
		{"four", 0}, // malformed → unset (plus a warning, once)
		{"4.5", 0},  // malformed → unset
		{" 4", 0},   // strict parse: no whitespace trimming
	}
	for _, tc := range cases {
		t.Setenv("EXPRESSO_WORKERS", tc.value)
		if got := WorkersFromEnv(); got != tc.want {
			t.Errorf("WorkersFromEnv(%q) = %d, want %d", tc.value, got, tc.want)
		}
	}
}

// TestNewLogger checks the two supported formats and the error path.
func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	for _, format := range []string{"", "text"} {
		buf.Reset()
		lg, err := NewLogger(&buf, format, 0)
		if err != nil {
			t.Fatalf("NewLogger(%q): %v", format, err)
		}
		lg.Info("hello", "k", "v")
		if !strings.Contains(buf.String(), "msg=hello") {
			t.Errorf("format %q: text output = %q", format, buf.String())
		}
	}

	buf.Reset()
	lg, err := NewLogger(&buf, "json", 0)
	if err != nil {
		t.Fatalf("NewLogger(json): %v", err)
	}
	lg.Info("hello", "k", "v")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json log line does not parse: %v (%q)", err, buf.String())
	}
	if rec["msg"] != "hello" || rec["k"] != "v" {
		t.Errorf("json log record = %v", rec)
	}

	if _, err := NewLogger(&buf, "xml", 0); err == nil {
		t.Error("NewLogger(xml) succeeded, want error")
	}
}

// Package telemetry is the engine's observability layer: a run-scoped
// trace recorder (Tracer) producing one JSON document per verification,
// structured-logging construction helpers over log/slog, and the single
// parser of the EXPRESSO_WORKERS environment knob.
//
// # Tracing model
//
// A Tracer is attached to one verification run (expresso.Options.Trace)
// and collects, in memory, everything the engine knows about how that run
// went: a span per pipeline stage (with the stage-cache provenance the
// pipeline already computes), one event per EPVP fixed-point round
// (routers recomputed, frontier size, RIB changes, BDD node growth, memo
// hit rates), and per-router SPF events (FIB compilation and symbolic
// packet forwarding). Finish freezes the recording into a Trace, whose
// JSON rendering is schema-stable (SchemaVersion bumps on any breaking
// change).
//
// # Zero overhead when disabled
//
// A nil *Tracer is a valid tracer: every method is a nil-receiver no-op,
// so instrumented code calls t.Round(...) (or guards larger snapshot work
// behind t.Enabled()) without allocating, locking, or branching beyond a
// single nil check. The engine's hot paths carry no other tracing cost;
// TestTraceOverhead pins the enabled-path overhead under 5%.
//
// A Tracer is safe for concurrent use: SPF fans out per-router work
// across goroutines and workers record events directly.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"
)

// SchemaVersion identifies the trace JSON layout. Consumers should reject
// traces whose schema field they do not recognize; any
// backwards-incompatible change to the structs below must bump this.
const SchemaVersion = "expresso-trace/1"

// Span is one pipeline stage's execution record: the stage name, its
// cache provenance (hit, miss, or warm — empty for untracked work), the
// stage key it was resolved under, and wall-clock timing. StartNS is the
// offset from the trace's Start time, so spans reconstruct the run's
// timeline without absolute clocks.
type Span struct {
	Name   string `json:"name"`
	Status string `json:"status,omitempty"`
	Key    string `json:"key,omitempty"`
	// Seed is the digest of the prior converged state a warm-started SRC
	// stage chained on (empty for every other provenance).
	Seed     string `json:"seed,omitempty"`
	Note     string `json:"note,omitempty"`
	StartNS  int64  `json:"start_ns"`
	Duration int64  `json:"duration_ns"`
}

// RoundEvent records one EPVP synchronous round (§4 of the paper): how
// much of the network was still in motion and what it cost symbolically.
// UniqueMisses equals the number of BDD nodes hash-consed during the
// round; BDDNodes is the live population, which can shrink when the
// engine reclaims dead nodes between rounds (the Reclaim* fields record
// those sweeps).
type RoundEvent struct {
	// Round is 1-based and matches the engine's reported Iterations.
	Round int `json:"round"`
	// Recomputed counts the routers whose RIBs were rebuilt this round.
	Recomputed int `json:"recomputed"`
	// Frontier counts the routers whose RIBs changed in the previous
	// round (the change set driving this round's work list). Round 1 has
	// no previous round: a cold run counts every internal router, a warm
	// one the internal routers of its dirty set plus those its seed lacks.
	Frontier int `json:"frontier"`
	// RIBChanges counts the routers whose RIBs changed this round, as
	// route sets: a recomputed RIB holding the same routes in another
	// order is unchanged.
	RIBChanges int `json:"rib_changes"`
	// BDDNodes is the manager's live node count after the round (post any
	// reclamation); BDDGrowth is the round's hash-consing growth, which is
	// monotone even across reclaims.
	BDDNodes  int64 `json:"bdd_nodes"`
	BDDGrowth int64 `json:"bdd_node_growth"`
	// ITEHits/ITEMisses are the round's operation-memo lookups (the ITE
	// cache and the binary apply-kernel cache) summed across the engine's
	// BDD workers.
	ITEHits   int64 `json:"ite_hits"`
	ITEMisses int64 `json:"ite_misses"`
	// UniqueHits/UniqueMisses are the round's unique-table (hash-consing)
	// lookups: a hit reused a canonical node, a miss created one.
	UniqueHits   int64 `json:"unique_hits"`
	UniqueMisses int64 `json:"unique_misses"`
	// MergeHits/MergeMisses are the round's merge lookups in the run's
	// memo (a member's U \ blocked and a tier's union, see
	// symbolic.RunMemo; its edge transfers are not counted): a hit reused
	// a result computed earlier in the run, a miss computed one.
	MergeHits   int64 `json:"merge_hits,omitempty"`
	MergeMisses int64 `json:"merge_misses,omitempty"`
	// Reclaims counts dead-node sweeps run at this round's boundary;
	// ReclaimedNodes is how many slab slots they freed and ReclaimNS their
	// total stop-the-world pause. All zero in rounds without a sweep.
	Reclaims       int64 `json:"reclaims,omitempty"`
	ReclaimedNodes int64 `json:"reclaimed_nodes,omitempty"`
	ReclaimNS      int64 `json:"reclaim_ns,omitempty"`
	// BDDPeak is the manager's peak-live-node watermark as of this round's
	// end — the running maximum over the schedule-independent sample
	// points, not a per-round quantity.
	BDDPeak  int64 `json:"bdd_peak,omitempty"`
	Duration int64 `json:"duration_ns"`
}

// SweepEvent is what a sweep barrier did: sweeps run, slab slots freed and
// their stop-the-world pause (RoundEvent's Reclaim* fields at a round end).
type SweepEvent struct {
	Sweeps     int64 `json:"sweeps"`
	SweptNodes int64 `json:"swept_nodes"`
	SweepNS    int64 `json:"sweep_ns"`
}

// FIBEvent records one router's symbolic FIB compilation during SPF.
type FIBEvent struct {
	Router string `json:"router"`
	// Entries is the number of symbolic FIB rules compiled; Ports is the
	// number of distinct next hops with a non-empty effective predicate.
	Entries  int   `json:"entries"`
	Ports    int   `json:"ports"`
	Duration int64 `json:"duration_ns"`
}

// ForwardEvent records the symbolic packet traversal injected at one
// router: how many packet equivalence classes it produced (pre-coalesce).
type ForwardEvent struct {
	Router   string `json:"router"`
	PECs     int    `json:"pecs"`
	Duration int64  `json:"duration_ns"`
}

// CoalesceEvent records one PEC-coalescing pass: how many raw classes
// went in and how many merged (path, final-state) classes came out.
type CoalesceEvent struct {
	// Phase is "internal" (after internal injections) or "external"
	// (after external injections are derived).
	Phase     string `json:"phase"`
	Raw       int    `json:"raw_pecs"`
	Coalesced int    `json:"coalesced_pecs"`
}

// SPFOrderEvent records the variable order an SPF run built under: the
// data-plane advertiser block's prefix lengths from the topmost level down
// (one block of n per-neighbor variables each), how many of the 33·n
// variables the run's FIBs reference, and how many conversions the run
// computed against how many it found in the manager's memo. A conversion
// is one prefix length's slice of a converted set — a (router, next hop)
// union of route sets — keyed by that length's cofactor, so a delta
// against a pinned baseline computes only the slices its change reached
// and reuses the baseline's for the rest.
type SPFOrderEvent struct {
	Lengths   []int `json:"lengths"`
	VarsUsed  int   `json:"vars_used"`
	Converted int64 `json:"conversions_computed"`
	Reused    int64 `json:"conversions_reused"`
}

// BDDLevel is one row of a per-level BDD node attribution: live nodes
// deciding on one variable level and their slab-byte cost. It mirrors
// bdd.LevelProfile structurally; telemetry stays import-free of the
// engine packages, so producers convert.
type BDDLevel struct {
	Level int   `json:"level"`
	Nodes int64 `json:"nodes"`
	Bytes int64 `json:"bytes"`
}

// Watermark is the trace footer's BDD memory section: the peak live-node
// population across the run (sampled at reclaim boundaries, EPVP round
// ends, and SPF completion — deterministic quiescent points, so the peak
// is identical at any worker count), the end-of-run population, the
// complement-edge share, and the largest levels by live nodes (the direct
// input to variable-reordering and compression work).
type Watermark struct {
	PeakLiveNodes int64 `json:"peak_live_nodes"`
	PeakLiveBytes int64 `json:"peak_live_bytes"`
	// Samples counts watermark sample points hit during the run.
	Samples      int64 `json:"samples"`
	EndLiveNodes int64 `json:"end_live_nodes"`
	EndLiveBytes int64 `json:"end_live_bytes"`
	// ComplementShare is the fraction of live nodes whose low edge
	// carries the complement bit at end of run.
	ComplementShare float64    `json:"complement_share"`
	TopLevels       []BDDLevel `json:"top_levels,omitempty"`
}

// Trace is the frozen JSON document describing one verification run.
type Trace struct {
	Schema string `json:"schema"`
	// Digest is the request digest when the run went through the staged
	// verifier ("" for pre-loaded networks, which have no config text).
	Digest string `json:"digest,omitempty"`
	// Mode is the EPVP feature selection (epvp.Mode.Key rendering) and
	// Options the normalized expresso.Options.CacheKey rendering.
	Mode    string `json:"mode,omitempty"`
	Options string `json:"options,omitempty"`
	// Workers is the resolved engine worker count of the run.
	Workers  int       `json:"workers,omitempty"`
	Start    time.Time `json:"start"`
	Duration int64     `json:"duration_ns"`

	Spans       []Span          `json:"spans"`
	EPVPRounds  []RoundEvent    `json:"epvp_rounds,omitempty"`
	SPFFIBs     []FIBEvent      `json:"spf_fibs,omitempty"`
	SPFForwards []ForwardEvent  `json:"spf_forwards,omitempty"`
	PECCoalesce []CoalesceEvent `json:"pec_coalesce,omitempty"`
	SPFOrder    *SPFOrderEvent  `json:"spf_order,omitempty"`
	// Watermark is the run's BDD memory footer (nil when the producer
	// predates it or the run never touched a BDD manager).
	Watermark *Watermark `json:"watermark,omitempty"`
	// PreSPFSweep is the pre-SPF barrier's sweep, nil when none ran.
	PreSPFSweep *SweepEvent `json:"pre_spf_sweep,omitempty"`
}

// Tracer records one run's trace. The zero value is NOT ready for use —
// build one with NewTracer — but a nil *Tracer is: every method no-ops on
// a nil receiver, which is the disabled path the engine threads through
// its hot loops.
type Tracer struct {
	mu    sync.Mutex
	start time.Time
	trace Trace
}

// NewTracer starts an enabled run-scoped tracer.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now(), trace: Trace{Schema: SchemaVersion, Start: time.Now()}}
}

// Enabled reports whether events will be recorded. Instrumented code uses
// it to skip snapshot work (counter reads, struct assembly) entirely on
// the disabled path.
func (t *Tracer) Enabled() bool { return t != nil }

// SetMeta attaches run identity to the trace: the request digest (may be
// empty), the mode and options key renderings, and the resolved worker
// count.
func (t *Tracer) SetMeta(digest, mode, options string, workers int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace.Digest = digest
	t.trace.Mode = mode
	t.trace.Options = options
	t.trace.Workers = workers
}

// Span records a completed stage. seed is the warm-start seed digest (""
// when the stage was not warm-started); d is the stage's wall-clock
// duration — the span's start offset is inferred from the recording time,
// which is accurate because stages record themselves as they finish.
func (t *Tracer) Span(name, status, key, seed, note string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	startNS := time.Since(t.start).Nanoseconds() - d.Nanoseconds()
	if startNS < 0 {
		startNS = 0
	}
	t.trace.Spans = append(t.trace.Spans, Span{
		Name: name, Status: status, Key: key, Seed: seed, Note: note,
		StartNS: startNS, Duration: d.Nanoseconds(),
	})
}

// SetWatermark attaches the run's BDD memory footer. Later calls
// overwrite earlier ones, so producers record it once, at end of run.
func (t *Tracer) SetWatermark(w Watermark) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace.Watermark = &w
}

// Round records one EPVP fixed-point round.
func (t *Tracer) Round(ev RoundEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace.EPVPRounds = append(t.trace.EPVPRounds, ev)
}

// PreSPFSweep records the sweep the pre-SPF barrier ran.
func (t *Tracer) PreSPFSweep(ev SweepEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace.PreSPFSweep = &ev
}

// FIB records one router's FIB compilation. Safe to call from SPF's
// worker goroutines.
func (t *Tracer) FIB(ev FIBEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace.SPFFIBs = append(t.trace.SPFFIBs, ev)
}

// Forward records one injection point's traversal. Safe to call from
// SPF's worker goroutines.
func (t *Tracer) Forward(ev ForwardEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace.SPFForwards = append(t.trace.SPFForwards, ev)
}

// Coalesce records one PEC-coalescing pass.
func (t *Tracer) Coalesce(ev CoalesceEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace.PECCoalesce = append(t.trace.PECCoalesce, ev)
}

// SPFOrder records the data-plane block order of the run's SPF stage.
func (t *Tracer) SPFOrder(ev SPFOrderEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace.SPFOrder = &ev
}

// Finish freezes the recording and returns the trace (nil for a nil
// tracer). The trace's total duration is stamped on the first call;
// recording after Finish is permitted but normally everything is done.
// The returned Trace shares the tracer's slices, so callers must not keep
// recording into the tracer while mutating the result.
func (t *Tracer) Finish() *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.trace.Duration == 0 {
		t.trace.Duration = time.Since(t.start).Nanoseconds()
	}
	tr := t.trace
	return &tr
}

// WriteJSON finishes the tracer and writes the indented trace JSON.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Finish())
}

// NewLogger builds a slog.Logger writing to w in the requested format:
// "text" (the default when format is empty) or "json". It is the single
// construction point for the CLI's -log-format flag and the service's
// lifecycle logging, so every binary renders logs the same way.
func NewLogger(w io.Writer, format string, level slog.Level) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("telemetry: unknown log format %q (want \"text\" or \"json\")", format)
	}
}

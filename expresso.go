// Package expresso is the public API of this reproduction of "Expresso:
// Comprehensively Reasoning About External Routes Using Symbolic
// Simulation" (SIGCOMM 2024).
//
// Expresso verifies routing and forwarding properties of a BGP network
// under **arbitrary external routes**: every external neighbor may
// advertise any set of prefixes with any attributes. The analysis runs in
// three stages (§3.2 of the paper):
//
//  1. SRC — symbolic route computation (the EPVP fixed point),
//  2. SPF — symbolic packet forwarding (symbolic FIBs and PECs),
//  3. property analysis over the symbolic RIBs and PECs.
//
// Basic use:
//
//	net, err := expresso.Load(configText)
//	report, err := net.Verify(expresso.Options{})
//	for _, v := range report.Violations { fmt.Println(v) }
package expresso

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/epvp"
	"github.com/expresso-verify/expresso/internal/pipeline"
	"github.com/expresso-verify/expresso/internal/properties"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/telemetry"
	"github.com/expresso-verify/expresso/internal/topology"
)

// Violation re-exports the property-analysis violation type.
type Violation = properties.Violation

// Kind re-exports the property kind.
type Kind = properties.Kind

// Re-exported property kinds.
const (
	RouteLeakFree     = properties.RouteLeakFree
	RouteHijackFree   = properties.RouteHijackFree
	TrafficHijackFree = properties.TrafficHijackFree
	BlackHoleFree     = properties.BlackHoleFree
	LoopFree          = properties.LoopFree
	BlockToExternal   = properties.BlockToExternal
	EgressPreference  = properties.EgressPreference
)

// Mode re-exports the EPVP feature selection (Figure 6c's levels).
type Mode = epvp.Mode

// FullMode enables traffic policies, symbolic communities, and symbolic AS
// paths — the paper's default Expresso configuration.
func FullMode() Mode { return epvp.FullMode() }

// ExpressoMinusMode is Expresso- (§7.2): concrete AS paths.
func ExpressoMinusMode() Mode {
	m := epvp.FullMode()
	m.SymbolicASPaths = false
	return m
}

// Options configures a verification run.
type Options struct {
	// Mode selects modeled protocol features; the zero value is upgraded
	// to FullMode.
	Mode Mode
	// Properties selects which properties to check; empty means
	// RouteLeakFree, RouteHijackFree, and TrafficHijackFree (the §7.1
	// set).
	Properties []Kind
	// BTE is the community for BlockToExternal (required when that
	// property is selected).
	BTE route.Community
	// Workers is the number of goroutines the symbolic engine uses for the
	// EPVP rounds and the SPF traversal. 0 means one per available CPU
	// (runtime.GOMAXPROCS); 1 keeps the single-threaded reference path.
	// The Report is byte-identical for every value, so Workers is excluded
	// from CacheKey. The EXPRESSO_WORKERS environment variable, when set
	// to a positive integer, overrides a zero value (used by CI to force
	// the parallel paths under the race detector).
	Workers int
	// Trace, when non-nil, records a run-scoped telemetry trace: one
	// span per pipeline stage (with cache provenance) plus fine-grained
	// engine events — per-EPVP-round convergence records and per-router
	// SPF work. Call Trace.Finish (or WriteJSON) after the run to obtain
	// the trace. A nil Trace is the default and costs nothing on the
	// engine's hot paths. Like Workers, Trace never changes a report's
	// content and is excluded from CacheKey.
	Trace *Tracer
}

// Tracer re-exports the telemetry run-trace recorder (see Options.Trace).
type Tracer = telemetry.Tracer

// Trace re-exports the frozen trace document a Tracer produces.
type Trace = telemetry.Trace

// NewTracer starts a run-scoped trace recorder for Options.Trace.
func NewTracer() *Tracer { return telemetry.NewTracer() }

func (o *Options) normalize() {
	if o.Mode.IsZero() {
		o.Mode = FullMode()
	}
	if len(o.Properties) == 0 {
		o.Properties = []Kind{RouteLeakFree, RouteHijackFree, TrafficHijackFree}
	}
}

// CacheKey renders the normalized options deterministically (mode flags,
// sorted property set, BTE community). Two Options values with the same key
// request the same verification, so services may key result caches on it
// together with a digest of the configuration text. Workers is
// deliberately absent: it changes how fast a report is produced, not its
// content, so cached results are shared across worker counts.
//
// Every field is rendered explicitly — the mode through Mode.Key, the rest
// by hand — never through a %+v of a whole struct, whose output shifts
// with any field rename or reorder and would silently invalidate every
// key. The golden test in expresso_pipeline_test.go pins the format.
func (o Options) CacheKey() string {
	o.Properties = append([]Kind(nil), o.Properties...)
	o.normalize()
	props := make([]string, len(o.Properties))
	for i, p := range o.Properties {
		props[i] = string(p)
	}
	sort.Strings(props)
	return "mode=" + o.Mode.Key() +
		"|props=" + strings.Join(props, ",") +
		"|bte=" + strconv.FormatUint(uint64(o.BTE), 10)
}

// ParseProperty maps a property name to its Kind. It accepts both the short
// CLI names (leak, hijack, traffic, blackhole, loop, bte, egress) and the
// canonical kind strings (RouteLeakFree, ...).
func ParseProperty(name string) (Kind, error) {
	switch strings.TrimSpace(name) {
	case "leak", string(RouteLeakFree):
		return RouteLeakFree, nil
	case "hijack", string(RouteHijackFree):
		return RouteHijackFree, nil
	case "traffic", string(TrafficHijackFree):
		return TrafficHijackFree, nil
	case "blackhole", string(BlackHoleFree):
		return BlackHoleFree, nil
	case "loop", string(LoopFree):
		return LoopFree, nil
	case "bte", string(BlockToExternal):
		return BlockToExternal, nil
	case "egress", string(EgressPreference):
		return EgressPreference, nil
	}
	return "", fmt.Errorf("expresso: unknown property %q", name)
}

// ParseOptions is the one translation of a request as clients spell it —
// property names (see ParseProperty; none means the default set), mode ""
// or "full" for Expresso and "minus" for Expresso-, the BlockToExternal
// community as "asn:value" or "" — into Options. The CLI's flags and the
// service's request bodies both go through it.
func ParseOptions(props []string, mode, bte string) (Options, error) {
	var opts Options
	switch mode {
	case "", "full":
	case "minus":
		opts.Mode = ExpressoMinusMode()
	default:
		return opts, fmt.Errorf("expresso: unknown mode %q (want \"full\" or \"minus\")", mode)
	}
	for _, name := range props {
		k, err := ParseProperty(name)
		if err != nil {
			return opts, err
		}
		opts.Properties = append(opts.Properties, k)
	}
	if bte != "" {
		c, err := route.ParseCommunity(bte)
		if err != nil {
			return opts, err
		}
		opts.BTE = c
	}
	return opts, nil
}

// Timing records per-stage wall-clock durations (Table 3's columns).
// Durations marshal as integer nanoseconds.
type Timing struct {
	// Load is the parse+build time of the network the run verified (a
	// Network's was spent in Load, before the run).
	Load               time.Duration `json:"load_ns"`
	SRC                time.Duration `json:"src_ns"`
	RoutingAnalysis    time.Duration `json:"routing_analysis_ns"`
	SPF                time.Duration `json:"spf_ns"`
	ForwardingAnalysis time.Duration `json:"forwarding_analysis_ns"`
	// Workers is the resolved engine worker count the run used (1 =
	// sequential reference path).
	Workers int `json:"workers"`
}

// Total sums every stage duration. A new stage field must be added here:
// the reflection test TestTimingTotalCoversAllStages fails otherwise.
func (t Timing) Total() time.Duration {
	return t.Load + t.SRC + t.RoutingAnalysis + t.SPF + t.ForwardingAnalysis
}

// Report is the outcome of a verification run.
type Report struct {
	// Stats summarizes the analyzed network (Table 1's columns).
	Stats topology.Stats `json:"stats"`
	// Violations lists every property violation found.
	Violations []Violation `json:"violations,omitempty"`
	// Timing holds per-stage durations.
	Timing Timing `json:"timing"`
	// HeapBytes is the live heap after the run (Figure 8's metric).
	HeapBytes uint64 `json:"heap_bytes"`
	// Converged reports whether EPVP reached its fixed point.
	Converged bool `json:"converged"`
	// Iterations counts EPVP rounds.
	Iterations int `json:"iterations"`
	// RIBRoutes is the total number of symbolic routes across internal
	// RIBs.
	RIBRoutes int `json:"rib_routes"`
	// PECs is the number of packet equivalence classes computed (0 when no
	// forwarding property was requested).
	PECs int `json:"pecs"`
}

// CountByKind tallies violations per property.
func (r *Report) CountByKind() map[Kind]int {
	out := map[Kind]int{}
	for _, v := range r.Violations {
		out[v.Kind]++
	}
	return out
}

// Network is a loaded, analyzable network, built by Load or LoadDir.
type Network struct {
	// Topo is the built topology, for inspection.
	Topo *topology.Network
	// load is the Load-stage artifact Topo belongs to: what Verify verifies.
	load *pipeline.LoadArtifact
}

// ReadConfig turns a path into configuration text — the one way from disk to
// Load and the Verifier: a file's bytes, or a directory's *.cfg files joined
// in name order. Each file of a directory must parse on its own, so an error
// names the file and the line within it: joined first, a stray statement
// opening one file would be taken for the last router of the file before it.
func ReadConfig(path string) (string, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return "", fmt.Errorf("expresso: %w", err)
	}
	if !fi.IsDir() {
		data, err := os.ReadFile(path)
		if err != nil {
			return "", fmt.Errorf("expresso: %w", err)
		}
		return string(data), nil
	}
	entries, err := os.ReadDir(path) // sorted by file name
	if err != nil {
		return "", fmt.Errorf("expresso: %w", err)
	}
	var b strings.Builder
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".cfg") {
			continue
		}
		file := filepath.Join(path, e.Name())
		data, err := os.ReadFile(file)
		if err != nil {
			return "", fmt.Errorf("expresso: %w", err)
		}
		if _, err := config.ParseConfigs(string(data)); err != nil {
			return "", fmt.Errorf("expresso: %s: %w", file, err)
		}
		b.Write(data)
		b.WriteByte('\n')
	}
	if b.Len() == 0 {
		return "", fmt.Errorf("expresso: no router definitions in any *.cfg file under %s", path)
	}
	return b.String(), nil
}

// Load parses a multi-router configuration text and builds the network: the
// pipeline's Load stage, digests included, run once.
func Load(configText string) (*Network, error) {
	art, err := pipeline.Load(configText)
	if err != nil {
		return nil, err
	}
	return &Network{Topo: art.Net, load: art}, nil
}

// LoadDir is Load of a directory's *.cfg files (see ReadConfig).
func LoadDir(dir string) (*Network, error) {
	text, err := ReadConfig(dir)
	if err != nil {
		return nil, err
	}
	return Load(text)
}

// Verify runs the requested property checks and returns the report.
func (n *Network) Verify(opts Options) (*Report, error) {
	return n.VerifyContext(context.Background(), opts)
}

// VerifyContext is Verify with cancellation: the context is checked inside
// the EPVP fixed-point iteration, the SPF traversal, and between the
// pipeline stages, so a cancelled or expired context aborts the run
// promptly and returns ctx.Err() instead of finishing minutes of symbolic
// simulation nobody is waiting for.
//
// VerifyContext runs the one verification driver on a zero Verifier, whose
// tiers keep nothing and which has no store or baseline: every stage runs
// cold, so repeated calls are fully independent — the determinism tests rely
// on that. Use a Verifier for stage-granular caching and, against a
// registered baseline, incremental (warm-start) re-verification.
func (n *Network) VerifyContext(ctx context.Context, opts Options) (*Report, error) {
	if n.load == nil {
		return nil, errors.New("expresso: Network was not built by Load or LoadDir")
	}
	rep, _, err := new(Verifier).run(ctx, n.load, nil, "", opts, nil)
	return rep, err
}

// traceRun records a finished run on its tracer, if it has one: identity,
// one span per stage provenance entry, and — when the run reached the SRC
// stage rather than the report cache (src != nil) — the BDD memory footer.
func traceRun(opts Options, info *RunInfo, rep *Report, src *pipeline.SRCArtifact) {
	if opts.Trace == nil {
		return
	}
	opts.Trace.SetMeta(info.Digest, opts.Mode.Key(), opts.CacheKey(), rep.Timing.Workers)
	for _, st := range info.Stages {
		opts.Trace.Span(st.Stage, st.Status, st.Key, st.Seed, st.Note, st.Duration)
	}
	traceWatermark(opts.Trace, src)
}

// traceWatermark records the run's BDD memory footer: the peak-live-node
// watermark, end-of-run population, complement share, and the ten
// largest levels. The underlying Profile is an O(slab) walk, so it runs
// only here — when a tracer is attached — keeping the zero-overhead
// contract for untraced runs.
func traceWatermark(tr *Tracer, src *pipeline.SRCArtifact) {
	if !tr.Enabled() || src == nil {
		return
	}
	p := src.BDDProfile()
	wm := telemetry.Watermark{
		PeakLiveNodes:   p.PeakLiveNodes,
		PeakLiveBytes:   p.PeakLiveBytes,
		Samples:         p.WatermarkSamples,
		EndLiveNodes:    p.LiveNodes,
		EndLiveBytes:    p.LiveBytes,
		ComplementShare: p.ComplementShare,
	}
	for _, l := range p.TopLevels(10) {
		wm.TopLevels = append(wm.TopLevels, telemetry.BDDLevel{
			Level: l.Level, Nodes: l.Nodes, Bytes: l.Bytes,
		})
	}
	tr.SetWatermark(wm)
}

// assembleReport builds the public Report from a pipeline outcome. The
// violation order is the monolith's: routing analysis (leak, hijack, bte)
// then forwarding analysis (traffic, blackhole, loop). Converged,
// Iterations, RIBRoutes, and Timing.Workers come from the SRC artifact —
// on a cache hit they describe the run that computed it, which keeps
// reports deterministic regardless of where an artifact came from.
func assembleReport(stats topology.Stats, out *pipeline.Outcome) *Report {
	rep := &Report{Stats: stats}
	src := out.SRC
	rep.Converged = src.Res.Converged
	rep.Iterations = src.Res.Iterations
	for _, rs := range src.Res.Best {
		rep.RIBRoutes += len(rs)
	}
	rep.Timing.Workers = src.Workers
	if out.Routing != nil {
		rep.Violations = append(rep.Violations, out.Routing.Violations...)
	}
	if out.SPF != nil {
		rep.PECs = len(out.SPF.Res.PECs)
	}
	if out.Forwarding != nil {
		rep.Violations = append(rep.Violations, out.Forwarding.Violations...)
	}
	for _, st := range out.Stages {
		switch st.Stage {
		case pipeline.StageSRC:
			rep.Timing.SRC = st.Duration
		case pipeline.StageRouting:
			rep.Timing.RoutingAnalysis = st.Duration
		case pipeline.StageSPF:
			rep.Timing.SPF = st.Duration
		case pipeline.StageForwarding:
			rep.Timing.ForwardingAnalysis = st.Duration
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.HeapBytes = ms.HeapAlloc
	return rep
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/expresso-verify/expresso"
	"github.com/expresso-verify/expresso/internal/pipeline"
	"github.com/expresso-verify/expresso/internal/service"
)

// elapsed reports whether the run's measuring time is used up.
func (rc *runContext) elapsed(start time.Time) bool {
	return time.Since(start).Seconds() >= rc.seconds
}

// setProc reports the Go runtime's per-operation cost of one child.
func (rc *runContext) setProc(pr *procRun, ops float64) {
	rc.set("proc.alloc_mb_per_op", pr.Out.Proc.AllocBytes/1e6/ops)
	rc.set("proc.allocs_per_op", pr.Out.Proc.AllocObjects/ops)
	rc.set("proc.gc_cycles_per_op", pr.Out.Proc.GCCycles/ops)
	rc.set("proc.gc_cpu_share", ratio(pr.Out.Proc.GCCPUSeconds, pr.CPU.Seconds()))
}

// layerNames maps span names to the per-layer metric each feeds.
var layerNames = map[string]string{
	"config.parse":          "config.parse_ms",
	"config.diff":           "config.diff_ms",
	"config.apply_patch":    "config.apply_patch_ms",
	"topology.build":        "topology.build_ms",
	"pipeline.digest":       "pipeline.digest_ms",
	"pipeline.encode_src":   "pipeline.encode_src_ms",
	"pipeline.decode_src":   "pipeline.decode_src_ms",
	"pipeline.encode_spf":   "pipeline.encode_spf_ms",
	"pipeline.decode_spf":   "pipeline.decode_spf_ms",
	"epvp.compile":          "epvp.compile_ms",
	"epvp.run":              "epvp.run_ms",
	"epvp.warm_compile":     "epvp.warm_compile_ms",
	"epvp.warm_run":         "epvp.warm_run_ms",
	"properties.routing":    "properties.routing_ms",
	"properties.forwarding": "properties.forwarding_ms",
	"spf.run":               "spf.run_ms",
	"store.open":            "store.open_ms",
	"store.put":             "store.put_ms",
	"store.get":             "store.get_ms",
}

// countNames maps the counts read at span boundaries ("<span>.<count>")
// to the per-layer metric each feeds.
var countNames = map[string]string{
	"epvp.compile.nodes_created": "epvp.compile_nodes",
	"epvp.run.nodes_created":     "epvp.nodes_created",
	"epvp.run.rounds":            "epvp.rounds",
	"spf.run.pecs":               "spf.pecs",
	"spf.run.nodes_created":      "spf.nodes_created",
	"pipeline.encode_src.bytes":  "pipeline.src_blob_bytes",
	"pipeline.encode_spf.bytes":  "pipeline.spf_blob_bytes",
}

// walkSummary is one walk reduced to metrics: per span name, the median
// over operations of the self time summed within an operation, and the
// same for the counts read at span boundaries.
type walkSummary struct {
	Kind    string             `json:"kind"`
	SelfMS  map[string]float64 `json:"self_ms"`
	LayerMS float64            `json:"layer_ms"` // median per-op sum over non-root spans
	Counts  map[string]float64 `json:"counts"`
	Spans   []span             `json:"spans"`
}

func summarizeWalk(kind string, w *walkResult, rootName string) *walkSummary {
	ops := map[int]bool{}
	for _, s := range w.Spans {
		if s.Name == rootName {
			ops[s.Op] = true
		}
	}
	perName := map[string][]float64{}
	perCount := map[string][]float64{}
	var layer []float64
	for op := range ops {
		var sum float64
		for name, ns := range selfTimes(w.Spans, op) {
			perName[name] = append(perName[name], float64(ns)/1e6)
			if name != rootName {
				sum += float64(ns) / 1e6
			}
		}
		layer = append(layer, sum)
		counts := map[string]float64{}
		for _, s := range w.Spans {
			if s.Op == op {
				for k, v := range s.Counts {
					counts[s.Name+"."+k] += v
				}
			}
		}
		for k, v := range counts {
			perCount[k] = append(perCount[k], v)
		}
	}
	sum := &walkSummary{Kind: kind, SelfMS: map[string]float64{}, Counts: map[string]float64{}, LayerMS: median(layer), Spans: w.Spans}
	for name, xs := range perName {
		sum.SelfMS[name] = median(xs)
	}
	for name, xs := range perCount {
		sum.Counts[name] = median(xs)
	}
	return sum
}

// setLayers copies a walk's span self times (all of them, or only the
// named spans'), its boundary counts and its values into the metrics.
func (rc *runContext) setLayers(sum *walkSummary, values map[string]float64, only ...string) {
	want := map[string]bool{}
	for _, n := range only {
		want[n] = true
	}
	for spanName, metric := range layerNames {
		if v, ok := sum.SelfMS[spanName]; ok && (len(want) == 0 || want[spanName]) {
			rc.set(metric, v)
		}
	}
	for count, metric := range countNames {
		if v, ok := sum.Counts[count]; ok {
			rc.set(metric, v)
		}
	}
	for name, v := range values {
		rc.set(name, v)
	}
}

// walk runs one layer-walk child and checks its verdicts.
func (rc *runContext) walk(kind, rootName string, extra ...string) (*walkSummary, *walkResult, error) {
	args := append([]string{"walk", "-kind", kind, "-config", rc.cfgPath, "-props", rc.def.Props,
		"-seed", fmt.Sprint(rc.seed)}, extra...)
	pr, err := rc.spawn(coldTimeout+10*time.Second, args...)
	if err != nil {
		return nil, nil, err
	}
	if pr.Out.Walk == nil {
		return nil, nil, fmt.Errorf("walk %s: no walk in result", kind)
	}
	return summarizeWalk(kind, pr.Out.Walk, rootName), pr.Out.Walk, nil
}

// writeSpans writes the run's span file, trace-<workload>.json.
func (rc *runContext) writeSpans(walks ...*walkSummary) error {
	doc := struct {
		Workload string         `json:"workload"`
		Seed     int64          `json:"seed"`
		Walks    []*walkSummary `json:"walks"`
	}{rc.def.Name, rc.seed, walks}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(rc.outDir, "trace-"+rc.def.Name+".json"), data, 0o644)
}

// reconcile reports the pipeline's wall for an operation next to what the
// walk's layer calls explain of it.
func (rc *runContext) reconcile(opMS float64, sum *walkSummary) {
	rc.set("pipeline.op_ms", opMS)
	gap := opMS - sum.LayerMS
	rc.set("pipeline.unattributed_ms", gap)
	if math.Abs(gap) > 0.1*opMS && math.Abs(gap) > 5 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: WARNING: layer walk explains %.1f ms of a %.1f ms operation (gap %.1f%%)\n",
			rc.def.Name, sum.LayerMS, opMS, 100*gap/opMS)
	}
}

// ---- check-region4, check-fullold-routing ---------------------------------

// runCheck measures cold `expresso check` processes: expresso.Load plus
// Network.Verify on a generated snapshot, one fresh process per operation.
func runCheck(rc *runContext) error {
	setupS, err := rc.setup(rc.def.Fixture, 9)
	if err != nil {
		return err
	}
	if rc.traced {
		return runCheckTraced(rc)
	}
	var walls, cpus, rss []float64
	var first json.RawMessage
	start := time.Now()
	// Two operations at least: one sample is not a median.
	for n := 0; n < 2 || !rc.elapsed(start); n++ {
		pr, err := rc.cold(rc.cfgPath)
		if err == nil {
			if first == nil {
				first = pr.Out.Runs[0].Report
			}
			err = sameReport("cold operation", first, pr.Out.Runs[0].Report)
		}
		if !rc.op("cold check", err) {
			continue
		}
		walls = append(walls, ms(pr.Wall))
		cpus = append(cpus, pr.CPU.Seconds())
		rss = append(rss, pr.RSSMB)
	}
	rc.set("setup_s", setupS)
	rc.set("verdict_p50_ms", median(walls))
	rc.set("cpu_per_op_s", median(cpus))
	rc.set("peak_rss_mb", median(rss))
	return nil
}

// runCheckTraced is the traced run of a check workload: one untraced cold
// operation as the reference, the layer walk of the same input, and one
// cold operation pinned to a single engine worker.
func runCheckTraced(rc *runContext) error {
	ref, err := rc.cold(rc.cfgPath)
	if !rc.op("reference cold check", err) {
		return nil
	}
	rc.setProc(ref, 1)

	sum, w, err := rc.walk("cold", "walk.cold")
	if err == nil {
		err = sameReport("layer walk against the pipeline", ref.Out.Runs[0].Report, w.Reports[0])
	}
	if rc.op("layer walk", err) {
		rc.setLayers(sum, w.Values)
		rc.reconcile(float64(ref.Out.Runs[0].WallNS)/1e6, sum)
		if err := rc.writeSpans(sum); err != nil {
			return err
		}
	}

	one, err := rc.cold(rc.cfgPath, "-workers", "1")
	if err == nil {
		err = sameReport("single-worker operation", ref.Out.Runs[0].Report, one.Out.Runs[0].Report)
	}
	if rc.op("single-worker cold check", err) {
		rc.set("pipeline.workers1_over_default", ratio(float64(one.Out.Runs[0].WallNS), float64(ref.Out.Runs[0].WallNS)))
	}
	return nil
}

// ---- serve-delta-region1 --------------------------------------------------

const baselineName = "bench"

// register posts the fixture as the daemon's baseline and checks the
// registration run's verdict.
func (rc *runContext) register(d *daemon) (time.Duration, error) {
	var st service.BaselineStatus
	start := time.Now()
	err := d.call("POST", "/v1/baselines", service.BaselineRequest{
		Name: baselineName, Config: rc.fx.Text, Properties: rc.propNames,
	}, &st)
	wall := time.Since(start)
	if err != nil {
		return wall, err
	}
	if st.Report == nil {
		return wall, fmt.Errorf("baseline registration returned no report")
	}
	return wall, rc.fx.checkVerdict(rc.props, st.Report.Converged, countsOf(st.Report))
}

// deltaOp is one delta job as the client saw it.
type deltaOp struct {
	wallMS    float64
	runMS     float64 // Finished - Started
	queueMS   float64 // Started - Created
	srcStatus string
	report    json.RawMessage
	id        string
	workers   int // the engine worker count the job resolved to
}

// delta posts the i-th one-router delta and, with wait, checks its verdict.
func (rc *runContext) delta(d *daemon, i int, wait bool) (*deltaOp, error) {
	req := service.DeltaRequest{
		Baseline: baselineName, Patch: rc.fx.patch(i), Properties: rc.propNames,
		TimeoutMS: deltaTimeout.Milliseconds(), Wait: wait,
	}
	var st service.JobStatus
	start := time.Now()
	err := d.call("POST", "/v1/jobs", req, &st)
	op := &deltaOp{wallMS: ms(time.Since(start)), id: st.ID}
	if err != nil || !wait {
		return op, err
	}
	if st.State != service.JobDone || st.Report == nil {
		return op, fmt.Errorf("delta %d: job %s ended %s: %s", i, st.ID, st.State, st.Error)
	}
	if err := rc.fx.checkVerdict(rc.props, st.Report.Converged, countsOf(st.Report)); err != nil {
		return op, fmt.Errorf("delta %d: %w", i, err)
	}
	for _, stage := range st.Stages {
		if stage.Stage == pipeline.StageSRC {
			op.srcStatus = stage.Status
		}
	}
	if op.srcStatus == expresso.StageMiss {
		return op, fmt.Errorf("delta %d: SRC ran cold instead of warm-starting from the baseline", i)
	}
	if st.Started != nil && st.Finished != nil {
		op.runMS = ms(st.Finished.Sub(*st.Started))
		op.queueMS = ms(st.Started.Sub(st.Created))
	}
	op.report, op.workers = canonicalReport(st.Report), st.Report.Timing.Workers
	return op, nil
}

// runServe measures the daemon's steady state: a fresh `serve` process,
// one registered baseline, then distinct one-router deltas from a single
// closed-loop client.
func runServe(rc *runContext) error {
	once, err := rc.setup(rc.def.Fixture, 1)
	if err != nil {
		return err
	}
	if rc.traced {
		return runServeTraced(rc)
	}

	// Set-up is a daemon start plus the baseline registration; it is done
	// three times and the third daemon is the one measured.
	var setups []float64
	var d *daemon
	for i := 0; i < 3; i++ {
		if d != nil {
			if _, err := d.stop(); err != nil {
				return err
			}
		}
		start := time.Now()
		if d, err = rc.startDaemon(); err != nil {
			return err
		}
		_, err := rc.register(d)
		setups = append(setups, time.Since(start).Seconds())
		if !rc.op("baseline registration", err) {
			_, _ = d.stop()
			return nil
		}
	}

	cpu0, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	var walls []float64
	start := time.Now()
	for i := 0; i < 10 || !rc.elapsed(start); i++ {
		op, err := rc.delta(d, i, true)
		if rc.op(fmt.Sprintf("delta %d", i), err) {
			walls = append(walls, op.wallMS)
		}
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	pr, err := d.stop()
	if err != nil {
		return err
	}
	rc.set("setup_s", once+median(setups))
	rc.set("verdict_p50_ms", median(walls))
	rc.set("cpu_per_op_s", ratio(cpu1-cpu0, float64(len(walls))))
	rc.set("peak_rss_mb", pr.RSSMB)
	return nil
}

const (
	tracedDeltas = 12
	burstSize    = 8
	bursts       = 3
	walkDeltas   = 5
	coldSamples  = 3
)

// runServeTraced is the traced run of the serve workload: an untraced
// daemon for deltas and bursts, a daemon with per-job traces for the
// engine's own events, the layer walk of the delta path, and three
// sampled delta configurations verified cold against their delta reports.
func runServeTraced(rc *runContext) error {
	d, err := rc.startDaemon()
	if err != nil {
		return err
	}
	regWall, err := rc.register(d)
	if !rc.op("baseline registration", err) {
		_, _ = d.stop()
		return nil
	}
	rc.set("service.register_baseline_ms", ms(regWall))

	var ops []*deltaOp
	var walls, runs, queue, overhead []float64
	warm, engineWorkers := 0, 1
	for i := 0; i < tracedDeltas; i++ {
		op, err := rc.delta(d, i, true)
		if !rc.op(fmt.Sprintf("delta %d", i), err) {
			ops = append(ops, nil)
			continue
		}
		ops = append(ops, op)
		walls = append(walls, op.wallMS)
		runs = append(runs, op.runMS)
		queue = append(queue, op.queueMS)
		overhead = append(overhead, op.wallMS-op.runMS)
		if op.srcStatus == expresso.StageWarm {
			warm++
		}
		engineWorkers = op.workers
	}
	rc.set("pipeline.src_warm_share", ratio(float64(warm), float64(len(walls))))
	rc.set("service.delta_p80_ms", percentile(walls, 80))
	rc.set("service.http_overhead_ms", median(overhead))
	rc.set("service.queue_wait_p50_ms", median(queue))
	if third := len(walls) / 3; third > 0 {
		rc.set("pipeline.delta_drift_ratio", ratio(median(walls[len(walls)-third:]), median(walls[:third])))
	}

	pr, err := d.stop()
	if err != nil {
		return err
	}
	rc.setProc(pr, 1+float64(len(ops))) // the registration run plus one per delta

	if err := rc.burstDaemon(); err != nil {
		return err
	}

	// A second daemon records a run trace per job: the SPF events of the
	// delta path, and what recording them costs.
	if err := rc.tracedDaemon(walls); err != nil {
		return err
	}

	// The layer walk of the same first deltas, reconciled with the time
	// the daemon's workers spent on them.
	patches := make([]expresso.Patch, walkDeltas)
	for i := range patches {
		patches[i] = rc.fx.patch(i)
	}
	data, err := json.Marshal(patches)
	if err != nil {
		return err
	}
	patchPath := filepath.Join(rc.dir, "patches.json")
	if err := os.WriteFile(patchPath, data, 0o644); err != nil {
		return err
	}
	sum, w, err := rc.walk("delta", "walk.delta", "-patches", patchPath, "-workers", fmt.Sprint(engineWorkers))
	if err == nil {
		for i, rep := range w.Reports {
			if ops[i] != nil && err == nil {
				err = sameReport(fmt.Sprintf("layer walk of delta %d against the daemon", i), ops[i].report, rep)
			}
		}
	}
	if rc.op("layer walk", err) {
		rc.setLayers(sum, w.Values)
		dirty := make([]float64, len(w.Dirty))
		for i, n := range w.Dirty {
			dirty[i] = float64(n)
		}
		rc.set("epvp.warm_dirty_routers", median(dirty))
		rc.reconcile(median(runs[:min(walkDeltas, len(runs))]), sum)
		if err := rc.writeSpans(sum); err != nil {
			return err
		}
	}

	// Sampled delta configurations, verified from scratch.
	rng := rand.New(rand.NewSource(rc.seed))
	for _, i := range rng.Perm(tracedDeltas)[:coldSamples] {
		if ops[i] == nil {
			continue
		}
		text, err := expresso.ApplyPatch(rc.fx.Text, rc.fx.patch(i))
		if err != nil {
			return err
		}
		path := filepath.Join(rc.dir, fmt.Sprintf("delta-%d.cfg", i))
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			return err
		}
		pr, err := rc.cold(path)
		if err == nil {
			err = sameReport(fmt.Sprintf("cold verification of delta %d against its delta report", i), ops[i].report, pr.Out.Runs[0].Report)
		}
		rc.op(fmt.Sprintf("cold check of delta %d", i), err)
	}
	return nil
}

// burstDaemon measures the coalescing queue under contention: bursts of
// superseding deltas posted back to back without waiting, timed from the
// first POST to the verdict of the last one, the winner.
//
// This daemon alone departs from the product's defaults: its pool has one
// worker. At the default pool size two delta jobs on one baseline run
// concurrently, and one job's pre-SPF bdd.Reclaim then races the other's
// epvp.NewWarm policy compile in the shared node manager and panics the
// process (see README.md, "What the benchmark found"). A workload whose
// operations crash the program cannot be a benchmark; until that is
// fixed the burst is measured where jobs cannot overlap.
func (rc *runContext) burstDaemon() error {
	d, err := rc.startDaemon("-pool", "1")
	if err != nil {
		return err
	}
	if _, err := rc.register(d); !rc.op("baseline registration (burst daemon)", err) {
		_, _ = d.stop()
		return nil
	}
	before, err := d.counters()
	if err != nil {
		return err
	}
	var winners []float64
	next := tracedDeltas
	for b := 0; b < bursts; b++ {
		start := time.Now()
		var burstErr error
		for j := 0; j < burstSize; j++ {
			_, err := rc.delta(d, next, j == burstSize-1)
			next++
			if err != nil {
				burstErr = err
			}
		}
		if rc.op(fmt.Sprintf("burst %d", b), burstErr) {
			winners = append(winners, ms(time.Since(start)))
		}
	}
	after, err := d.counters()
	if err != nil {
		return err
	}
	if _, err := d.stop(); err != nil {
		return err
	}
	diff := func(name string) float64 { return after[name] - before[name] }
	rc.set("service.burst_winner_p50_ms", median(winners))
	rc.set("service.runs_per_burst", diff("expresso_engine_runs_total")/bursts)
	rc.set("service.coalesced_share", ratio(diff("expresso_jobs_coalesced_total"), diff("expresso_jobs_accepted_total")))
	rc.set("service.rejected", after["expresso_jobs_rejected_total"])
	return nil
}

// tracedDaemon repeats the first deltas against a daemon started with
// service.Config.Trace and reads each job's trace. untraced are the same
// deltas' walls on the plain daemon: delta time drifts with the number of
// deltas a baseline has seen, so only equal positions are compared.
func (rc *runContext) tracedDaemon(untraced []float64) error {
	d, err := rc.startDaemon("-traced")
	if err != nil {
		return err
	}
	if _, err := rc.register(d); !rc.op("baseline registration (traced daemon)", err) {
		_, _ = d.stop()
		return nil
	}
	var walls, fib, forward, raw []float64
	n := min(tracedDeltas-4, len(untraced))
	for i := 0; i < n; i++ {
		op, err := rc.delta(d, i, true)
		var tr expresso.Trace
		if err == nil {
			err = d.call("GET", "/v1/jobs/"+op.id+"/trace", nil, &tr)
		}
		if !rc.op(fmt.Sprintf("traced delta %d", i), err) {
			continue
		}
		sums := sumTrace(&tr)
		walls = append(walls, op.wallMS)
		fib = append(fib, float64(sums.FIBNS)/1e6)
		forward = append(forward, float64(sums.ForwardNS)/1e6)
		raw = append(raw, float64(sums.RawPECs))
	}
	if _, err := d.stop(); err != nil {
		return err
	}
	rc.set("spf.fib_ms", median(fib))
	rc.set("spf.forward_ms", median(forward))
	rc.set("spf.raw_pecs", median(raw))
	rc.set("pipeline.trace_overhead_pct", 100*ratio(median(walls)-median(untraced[:n]), median(untraced[:n])))
	return nil
}

// ---- lifecycle-region1 ----------------------------------------------------

// cycle is one store lifecycle: a cold process writes every artifact
// through to a fresh directory (child A), then a new process answers the
// same text from that directory and once more from memory (child B).
type cycle struct {
	a, b     *procRun
	setupS   float64
	storeDir string
	bytes    int64
}

func (rc *runContext) cycle(i int) (*cycle, error) {
	c := &cycle{storeDir: filepath.Join(rc.dir, fmt.Sprintf("store-%d", i))}
	start := time.Now()
	if err := os.MkdirAll(c.storeDir, 0o755); err != nil {
		return nil, err
	}
	a, err := rc.cold(rc.cfgPath, "-store", c.storeDir)
	c.a, c.setupS = a, time.Since(start).Seconds()
	if err == nil {
		err = stagesAre(a.Out.Runs[0].Stages, expresso.StageMiss)
	}
	if err == nil && (a.Out.Store == nil || a.Out.Store.Writes < 4) {
		err = fmt.Errorf("cold process did not write its four artifacts through")
	}
	if !rc.op(fmt.Sprintf("cycle %d cold write-through", i), err) {
		return nil, nil
	}
	if c.bytes, err = dirBytes(c.storeDir); err != nil {
		return nil, err
	}

	b, err := rc.cold(rc.cfgPath, "-store", c.storeDir, "-again")
	c.b = b
	if err == nil {
		err = stagesAre(b.Out.Runs[0].Stages, expresso.StageDisk)
	}
	if err == nil && !b.Out.Runs[1].CacheHit {
		err = fmt.Errorf("second verification in one process missed the report cache")
	}
	if err == nil && (b.Out.Store == nil || b.Out.Store.Misses != 0) {
		err = fmt.Errorf("restarted process missed the store")
	}
	for _, run := range b.Out.Runs {
		if err == nil {
			err = sameReport("restored answer against the cold one", a.Out.Runs[0].Report, run.Report)
		}
	}
	if !rc.op(fmt.Sprintf("cycle %d restart", i), err) {
		return nil, nil
	}
	return c, nil
}

// stagesAre checks that every artifact-producing stage has the given
// provenance (load always parses; the report stage always assembles).
func stagesAre(stages []expresso.StageInfo, status string) error {
	seen := 0
	for _, st := range stages {
		switch st.Stage {
		case pipeline.StageSRC, pipeline.StageRouting, pipeline.StageSPF, pipeline.StageForwarding:
			seen++
			if st.Status != status {
				return fmt.Errorf("stage %s is %q, want %q", st.Stage, st.Status, status)
			}
		}
	}
	if seen == 0 {
		return fmt.Errorf("no stage provenance in result")
	}
	return nil
}

// runLifecycle measures the persistent store from both sides. The cold
// write-through is each cycle's set-up; the restarted process is the
// operation.
func runLifecycle(rc *runContext) error {
	onceS, err := rc.setup(rc.def.Fixture, 1)
	if err != nil {
		return err
	}
	if rc.traced {
		return runLifecycleTraced(rc)
	}
	var setups, walls, cpus, rss []float64
	start := time.Now()
	for i := 0; i < 3 || !rc.elapsed(start); i++ {
		c, err := rc.cycle(i)
		if err != nil {
			return err
		}
		if c == nil {
			continue
		}
		setups = append(setups, c.setupS)
		walls = append(walls, ms(c.b.Wall))
		cpus = append(cpus, c.b.CPU.Seconds())
		rss = append(rss, c.b.RSSMB)
		if err := os.RemoveAll(c.storeDir); err != nil {
			return err
		}
	}
	rc.set("setup_s", onceS+median(setups))
	rc.set("verdict_p50_ms", median(walls))
	rc.set("cpu_per_op_s", median(cpus))
	rc.set("peak_rss_mb", median(rss))
	return nil
}

// runLifecycleTraced is the traced run of the lifecycle workload: two
// cycles, the cold walk writing to its own store, the restart walk
// reading the store the pipeline wrote, and the price of Options.Trace on
// a cold operation.
func runLifecycleTraced(rc *runContext) error {
	var cold, restart, memwarm, bytes []float64
	var last *cycle
	for i := 0; i < 2; i++ {
		c, err := rc.cycle(i)
		if err != nil {
			return err
		}
		if c == nil {
			continue
		}
		last = c
		cold = append(cold, ms(c.a.Wall))
		restart = append(restart, float64(c.b.Out.Runs[0].WallNS)/1e6)
		memwarm = append(memwarm, float64(c.b.Out.Runs[1].WallNS)/1e6)
		bytes = append(bytes, float64(c.bytes))
	}
	if last == nil {
		return nil
	}
	rc.set("lifecycle.cold_ms", median(cold))
	rc.set("pipeline.memwarm_ms", median(memwarm))
	rc.set("store.bytes", median(bytes))
	rc.set("store.hits", float64(last.b.Out.Store.Hits))
	rc.set("store.misses", float64(last.b.Out.Store.Misses))
	rc.set("store.writes", float64(last.a.Out.Store.Writes))
	rc.setProc(last.a, 1)

	coldSum, cw, err := rc.walk("cold", "walk.cold", "-store", filepath.Join(rc.dir, "walk-store"))
	if err == nil {
		err = sameReport("cold layer walk against the pipeline", last.a.Out.Runs[0].Report, cw.Reports[0])
	}
	if rc.op("cold layer walk", err) {
		rc.setLayers(coldSum, cw.Values)
	}
	restartSum, rw, err := rc.walk("restart", "walk.restart", "-store", last.storeDir)
	if err == nil {
		err = sameReport("restart layer walk against the pipeline", last.a.Out.Runs[0].Report, rw.Reports[0])
	}
	if rc.op("restart layer walk", err) {
		// The restart is this workload's operation: its walk supplies the
		// layers a restarted process actually runs, and reconciles with it.
		rc.setLayers(restartSum, nil, "config.parse", "topology.build", "pipeline.digest", "epvp.compile",
			"pipeline.decode_src", "pipeline.decode_spf", "store.open", "store.get")
		rc.reconcile(median(restart), restartSum)
	}
	if coldSum != nil && restartSum != nil {
		if err := rc.writeSpans(coldSum, restartSum); err != nil {
			return err
		}
	}

	// Options.Trace on and off, alternating, three pairs.
	var plain, traced []float64
	for i := 0; i < 3; i++ {
		if pr, err := rc.cold(rc.cfgPath); rc.op("cold check", err) {
			plain = append(plain, float64(pr.Out.Runs[0].WallNS)/1e6)
		}
		if pr, err := rc.cold(rc.cfgPath, "-traced"); rc.op("traced cold check", err) {
			traced = append(traced, float64(pr.Out.Runs[0].WallNS)/1e6)
		}
	}
	rc.set("pipeline.trace_overhead_pct", 100*ratio(median(traced)-median(plain), median(plain)))
	return nil
}

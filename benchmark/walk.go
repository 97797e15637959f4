package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"github.com/expresso-verify/expresso"
	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/epvp"
	"github.com/expresso-verify/expresso/internal/pipeline"
	"github.com/expresso-verify/expresso/internal/properties"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/spf"
	"github.com/expresso-verify/expresso/internal/store"
	"github.com/expresso-verify/expresso/internal/symbolic"
	"github.com/expresso-verify/expresso/internal/telemetry"
	"github.com/expresso-verify/expresso/internal/topology"
)

// The layer walk is the pipeline unrolled in the benchmark's own code:
// each call into a layer's public function is wrapped in a span, and the
// counts that layer produces are read at the same boundary. Nothing inside
// the program is instrumented. The walk's verdict must equal the
// pipeline's, and the self times of its spans must add up to the
// pipeline's wall for the same input; what does not add up is reported as
// pipeline.unattributed_ms.

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the index of the span that caused it (-1 at the top).
type span struct {
	ID      int                `json:"id"`
	Name    string             `json:"name"`
	Op      int                `json:"op"`
	Parent  int                `json:"parent"`
	StartNS int64              `json:"start_ns"`
	EndNS   int64              `json:"end_ns"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

// recorder keeps spans in memory; the harness writes them out when the
// run ends. One goroutine drives a walk, so there is no locking.
type recorder struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, Op: r.op, Parent: parent, StartNS: time.Since(r.t0).Nanoseconds()})
	r.stack = append(r.stack, id)
	return id
}

func (r *recorder) end(id int) {
	r.spans[id].EndNS = time.Since(r.t0).Nanoseconds()
	r.stack = r.stack[:len(r.stack)-1]
}

// in times fn as a span and returns the span's index.
func (r *recorder) in(name string, fn func()) int {
	id := r.begin(name)
	fn()
	r.end(id)
	return id
}

func (r *recorder) count(id int, key string, v float64) {
	if r.spans[id].Counts == nil {
		r.spans[id].Counts = map[string]float64{}
	}
	r.spans[id].Counts[key] = v
}

// selfTimes sums, per span name, each span's duration minus the time its
// direct children cover, over the spans of one operation.
func selfTimes(spans []span, op int) map[string]int64 {
	childNS := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childNS[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string]int64{}
	for i, s := range spans {
		if s.Op != op {
			continue
		}
		out[s.Name] += s.EndNS - s.StartNS - childNS[i]
	}
	return out
}

// walkResult is what a walk child hands back.
type walkResult struct {
	Spans []span `json:"spans"`
	// Reports holds the walk's canonical report per operation, in op order.
	Reports []json.RawMessage `json:"reports"`
	// Values are the counts and micro-benchmark results read at the layer
	// boundaries, by per-layer metric name.
	Values map[string]float64 `json:"values"`
	// Dirty is the warm-start dirty-router count of each delta operation.
	Dirty []int `json:"dirty,omitempty"`
}

// gcHeapThreshold mirrors the pipeline's GCAuto cutoff (unexported there):
// past it the pipeline drops the engine's op caches and forces a
// collection between SRC and the analyses, so the walk must too.
const gcHeapThreshold = 256 << 20

// srcPinWindow mirrors the SRC stage cache's default capacity: a warm
// chain keeps this many converged states pinned in the shared manager.
const srcPinWindow = 4

type walker struct {
	ctx        context.Context
	rec        *recorder
	routing    []properties.Kind
	forwarding []properties.Kind
	workers    int
	tracer     *telemetry.Tracer
	disk       *store.Disk // nil: nothing is persisted
	res        *walkResult
}

// loaded is the Load stage's product plus the keys chained on it.
type loaded struct {
	art    *pipeline.LoadArtifact
	srcKey string
}

// load walks text -> devices -> topology -> digests.
func (w *walker) load(text string) (*loaded, error) {
	var (
		devices []*config.Device
		topo    *topology.Network
		err     error
	)
	w.rec.in("config.parse", func() { devices, err = config.ParseConfigs(text) })
	if err != nil {
		return nil, err
	}
	w.rec.in("topology.build", func() { topo, err = topology.Build(devices) })
	if err != nil {
		return nil, err
	}
	art := &pipeline.LoadArtifact{Net: topo}
	w.rec.in("pipeline.digest", func() {
		art.Digest = pipeline.ConfigDigest(text)
		art.DeviceDigests = pipeline.DeviceDigests(pipeline.CanonicalConfig(text))
	})
	return &loaded{art: art, srcKey: pipeline.SRCKey(art.Digest, epvp.FullMode())}, nil
}

// srcHandles lists what the pipeline pins for a converged state.
func srcHandles(eng *epvp.Engine, res *epvp.Result) []bdd.Node {
	roots := eng.Roots()
	for _, ribs := range []map[string][]*symbolic.Route{res.Best, res.ExternalRIB} {
		for _, rs := range ribs {
			for _, r := range rs {
				roots = append(roots, r.U)
			}
		}
	}
	return roots
}

func conds(vs []properties.Violation) []bdd.Node {
	out := make([]bdd.Node, len(vs))
	for i, v := range vs {
		out[i] = v.Cond
	}
	return out
}

// persist encodes an artifact and writes it through, when a store is
// attached; encodeSpan names the codec span ("" for the analysis blobs,
// which have no metric of their own).
func (w *walker) persist(stage, key, encodeSpan string, encode func() []byte) {
	if w.disk == nil {
		return
	}
	if encodeSpan == "" {
		encodeSpan = "pipeline.encode_analysis"
	}
	var blob []byte
	id := w.rec.in(encodeSpan, func() { blob = encode() })
	w.rec.count(id, "bytes", float64(len(blob)))
	w.rec.in("store.put", func() { w.disk.Put(stage, pipeline.DiskKey(key), blob) })
}

// analyse walks everything downstream of a converged state — exactly the
// order pipeline.Runner.Run uses — and returns the assembled report.
func (w *walker) analyse(ld *loaded, eng *epvp.Engine, res *epvp.Result, fresh bool) (*expresso.Report, []bdd.Node, error) {
	m := eng.Space.M
	pins := srcHandles(eng, res)
	w.rec.in("pipeline.pin", func() { m.Pin(pins...) })
	if fresh {
		w.persist(pipeline.StageSRC, ld.srcKey, "pipeline.encode_src", func() []byte {
			return pipeline.EncodeSRC(&pipeline.SRCArtifact{Key: ld.srcKey, Eng: eng, Res: res, Load: ld.art, Workers: eng.WorkerCount()})
		})
	}
	w.rec.in("pipeline.gc", func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc >= gcHeapThreshold {
			m.ClearCaches()
			runtime.GC()
		}
	})

	rep := &expresso.Report{Stats: ld.art.Net.Statistics(), Converged: res.Converged}
	for _, rs := range res.Best {
		rep.RIBRoutes += len(rs)
	}
	srcDigest := pipeline.DiskKey(ld.srcKey)

	var routingVs []properties.Violation
	w.rec.in("properties.routing", func() {
		for _, k := range w.routing {
			switch k {
			case properties.RouteLeakFree:
				routingVs = append(routingVs, properties.CheckRouteLeak(eng, res)...)
			case properties.RouteHijackFree:
				routingVs = append(routingVs, properties.CheckRouteHijack(eng, res)...)
			}
		}
	})
	m.Pin(conds(routingVs)...)
	routingKey := pipeline.RoutingKey(srcDigest, w.routing, 0)
	w.persist(pipeline.StageRouting, routingKey, "", func() []byte {
		return pipeline.EncodeAnalysis(&pipeline.AnalysisArtifact{Key: routingKey, Violations: routingVs}, m, 0)
	})
	rep.Violations = append(rep.Violations, routingVs...)
	if len(w.forwarding) == 0 {
		return rep, pins, nil
	}

	w.rec.in("bdd.sweep", func() {
		roots := append(append([]bdd.Node(nil), pins...), conds(routingVs)...)
		if budget, on := telemetry.ReorderBudgetFromEnv(); on && m.NumNodes() >= budget {
			m.Reorder(roots...)
		} else if budget, on := telemetry.ReclaimBudgetFromEnv(); on && m.NumNodes() >= budget {
			m.Reclaim(roots...)
		}
	})
	var (
		dp  *spf.Result
		err error
	)
	_, before := m.UniqueStats()
	id := w.rec.in("spf.run", func() { dp, err = spf.RunTraced(w.ctx, eng, res, w.tracer) })
	if err != nil {
		return nil, nil, err
	}
	_, after := m.UniqueStats()
	w.rec.count(id, "nodes_created", float64(after-before))
	w.rec.count(id, "pecs", float64(len(dp.PECs)))
	m.Pin(dp.Nodes()...)
	spfKey := pipeline.SPFKey(srcDigest)
	w.persist(pipeline.StageSPF, spfKey, "pipeline.encode_spf", func() []byte {
		return pipeline.EncodeSPF(&pipeline.SPFArtifact{Key: spfKey, Res: dp}, m)
	})
	rep.PECs = len(dp.PECs)

	var forwardingVs []properties.Violation
	w.rec.in("properties.forwarding", func() {
		for _, k := range w.forwarding {
			if k == properties.TrafficHijackFree {
				forwardingVs = append(forwardingVs, properties.CheckTrafficHijack(eng, dp)...)
			}
		}
	})
	m.Pin(conds(forwardingVs)...)
	forwardingKey := pipeline.ForwardingKey(pipeline.DiskKey(spfKey), w.forwarding)
	w.persist(pipeline.StageForwarding, forwardingKey, "", func() []byte {
		return pipeline.EncodeAnalysis(&pipeline.AnalysisArtifact{Key: forwardingKey, Violations: forwardingVs}, m, dp.VarBase())
	})
	rep.Violations = append(rep.Violations, forwardingVs...)
	return rep, pins, nil
}

// coldState is a converged cold walk: what a delta walk warm-starts from.
type coldState struct {
	ld  *loaded
	eng *epvp.Engine
	res *epvp.Result
}

// cold walks one verification from configuration text to report.
func (w *walker) cold(text string) (*coldState, error) {
	root := w.rec.begin("walk.cold")
	defer w.rec.end(root)
	ld, err := w.load(text)
	if err != nil {
		return nil, err
	}
	var eng *epvp.Engine
	id := w.rec.in("epvp.compile", func() { eng, err = epvp.NewContext(w.ctx, ld.art.Net, epvp.FullMode()) })
	if err != nil {
		return nil, err
	}
	_, compiled := eng.Space.M.UniqueStats()
	w.rec.count(id, "nodes_created", float64(compiled))

	eng.Workers, eng.Trace = w.workers, w.tracer
	var res *epvp.Result
	id = w.rec.in("epvp.run", func() { res, err = eng.RunContext(w.ctx) })
	eng.Trace = nil
	if err != nil {
		return nil, err
	}
	_, created := eng.Space.M.UniqueStats()
	w.rec.count(id, "nodes_created", float64(created-compiled))
	w.rec.count(id, "rounds", float64(res.Iterations))

	rep, _, err := w.analyse(ld, eng, res, true)
	if err != nil {
		return nil, err
	}
	w.res.Reports = append(w.res.Reports, canonicalReport(rep))
	w.res.Values["epvp.rib_routes"] = float64(rep.RIBRoutes)
	w.bddValues(eng)
	return &coldState{ld: ld, eng: eng, res: res}, nil
}

// bddValues reads the node manager's cumulative counters after a walk.
// The op-cache ratio is the engine's default worker's (policy compile,
// the analyses and every sequential section); forked workers' private
// caches cannot be read from outside the program.
func (w *walker) bddValues(eng *epvp.Engine) {
	m := eng.Space.M
	uniqueHits, created := m.UniqueStats()
	peak, _, _ := m.Watermark()
	opHits, opMisses := eng.Space.W.MemoStats()
	rc, ro := m.ReclaimStats(), m.ReorderStats()
	v := w.res.Values
	v["bdd.created_nodes"] = float64(created)
	v["bdd.peak_live_nodes"] = float64(peak)
	v["bdd.opcache_hit_ratio"] = ratio(float64(opHits), float64(opHits+opMisses))
	v["bdd.unique_hit_ratio"] = ratio(float64(uniqueHits), float64(uniqueHits+created))
	v["bdd.reclaims"] = float64(rc.Runs)
	v["bdd.reclaim_ms"] = ms(rc.Pause)
	v["bdd.sifts"] = float64(ro.Runs)
	v["bdd.sift_ms"] = ms(ro.Pause)
}

// restart walks a verification whose artifacts are all in the store: the
// path a restarted process takes, where only policy compilation is
// recomputed.
func (w *walker) restart(text, dir string) error {
	root := w.rec.begin("walk.restart")
	defer w.rec.end(root)
	var (
		disk *store.Disk
		err  error
	)
	w.rec.in("store.open", func() { disk, err = store.OpenDisk(dir, 0) })
	if err != nil {
		return err
	}
	get := func(stage, key string) ([]byte, error) {
		var (
			data []byte
			ok   bool
		)
		w.rec.in("store.get", func() { data, ok = disk.Get(stage, pipeline.DiskKey(key)) })
		if !ok {
			return nil, fmt.Errorf("store has no %s artifact", stage)
		}
		return data, nil
	}
	ld, err := w.load(text)
	if err != nil {
		return err
	}
	data, err := get(pipeline.StageSRC, ld.srcKey)
	if err != nil {
		return err
	}
	var eng *epvp.Engine
	w.rec.in("epvp.compile", func() { eng, err = epvp.NewContext(w.ctx, ld.art.Net, epvp.FullMode()) })
	if err != nil {
		return err
	}
	m := eng.Space.M
	var src *pipeline.SRCArtifact
	w.rec.in("pipeline.decode_src", func() { src, err = pipeline.DecodeSRC(eng, ld.art, ld.srcKey, data) })
	if err != nil {
		return err
	}
	w.rec.in("pipeline.pin", func() { m.Pin(srcHandles(eng, src.Res)...) })
	rep := &expresso.Report{Stats: ld.art.Net.Statistics(), Converged: src.Res.Converged}
	for _, rs := range src.Res.Best {
		rep.RIBRoutes += len(rs)
	}
	srcDigest := pipeline.DiskKey(ld.srcKey)

	decodeAnalysis := func(stage, key string, varBase int) error {
		data, err := get(stage, key)
		if err != nil {
			return err
		}
		var art *pipeline.AnalysisArtifact
		w.rec.in("pipeline.decode_analysis", func() { art, err = pipeline.DecodeAnalysis(m, key, varBase, data) })
		if err != nil {
			return err
		}
		rep.Violations = append(rep.Violations, art.Violations...)
		return nil
	}
	if err := decodeAnalysis(pipeline.StageRouting, pipeline.RoutingKey(srcDigest, w.routing, 0), 0); err != nil {
		return err
	}
	if len(w.forwarding) > 0 {
		spfKey := pipeline.SPFKey(srcDigest)
		if data, err = get(pipeline.StageSPF, spfKey); err != nil {
			return err
		}
		var art *pipeline.SPFArtifact
		w.rec.in("pipeline.decode_spf", func() { art, err = pipeline.DecodeSPF(eng, spfKey, data) })
		if err != nil {
			return err
		}
		rep.PECs = len(art.Res.PECs)
		key := pipeline.ForwardingKey(pipeline.DiskKey(spfKey), w.forwarding)
		if err := decodeAnalysis(pipeline.StageForwarding, key, art.Res.VarBase()); err != nil {
			return err
		}
	}
	w.res.Reports = append(w.res.Reports, canonicalReport(rep))
	return nil
}

// deltas walks one-router deltas against a converged baseline: the path
// a daemon job takes, where SRC is warm-started in the baseline's node
// manager and everything downstream is recomputed.
func (w *walker) deltas(base *coldState, baseText string, patches []expresso.Patch, optsKey string) error {
	var pinned [][]bdd.Node
	for i, patch := range patches {
		w.rec.op = i + 1
		var (
			text string
			err  error
		)
		root := w.rec.begin("walk.delta")
		w.rec.in("config.apply_patch", func() { text, err = config.ApplyPatch(baseText, patch) })
		if err != nil {
			return err
		}
		// Submission digests the request before a worker loads it.
		w.rec.in("pipeline.digest", func() { pipeline.ReportKey(text, optsKey) })
		ld, err := w.load(text)
		if err != nil {
			return err
		}
		var (
			unchanged map[string]bool
			dirty     []string
			eng       *epvp.Engine
			res       *epvp.Result
		)
		w.rec.in("pipeline.dirty", func() {
			unchanged = pipeline.UnchangedRouters(base.ld.art, ld.art)
			dirty = pipeline.DirtyRouters(base.ld.art, ld.art)
		})
		w.rec.in("epvp.warm_compile", func() {
			eng, err = epvp.NewWarm(w.ctx, ld.art.Net, epvp.FullMode(), base.eng, unchanged)
		})
		if err != nil {
			return err
		}
		eng.Workers = w.workers
		w.rec.in("epvp.warm_run", func() { res, err = eng.RunWarmContext(w.ctx, base.res, dirty) })
		if err != nil {
			return err
		}
		rep, pins, err := w.analyse(ld, eng, res, false)
		if err != nil {
			return err
		}
		w.rec.end(root)
		w.res.Reports = append(w.res.Reports, canonicalReport(rep))
		w.res.Dirty = append(w.res.Dirty, len(dirty))

		// The client-side cost of producing the patch; not on the job's path.
		w.rec.in("config.diff", func() { config.Diff(baseText, text) })

		pinned = append(pinned, pins)
		if len(pinned) > srcPinWindow {
			base.eng.Space.M.Unpin(pinned[0]...)
			pinned = pinned[1:]
		}
	}
	w.bddValues(base.eng)
	return nil
}

// bddKernels times the two BDD kernels every layer leans on, directly:
// And over seeded pairs of prefix-set predicates and Exists over their
// address bits, on the region-1 prefix plan (200 internal /24s, 600
// customer /24s), grouped into sets of 16. Op caches are cleared between
// rounds so every round does the same work.
func (w *walker) bddKernels(seed int64) {
	const (
		groups = 50
		rounds = 20
	)
	sp := symbolic.NewSpace(10)
	worker := sp.M.NewWorker()
	var sets []bdd.Node
	for g := 0; g < groups; g++ {
		var ps []route.Prefix
		for j := 0; j < 16; j++ {
			i := g*16 + j
			first := 10
			if i >= 200 {
				first = 20
			}
			ps = append(ps, route.MustParsePrefix(fmt.Sprintf("%d.%d.%d.0/24", first, (i/250)%250, i%250)))
		}
		nbr := sp.M.Var(sp.NbrVar(g % 10))
		sets = append(sets, worker.And(sp.PrefixesBDD(ps), nbr))
	}
	rng := rand.New(rand.NewSource(seed))
	type pair struct{ a, b bdd.Node }
	pairs := make([]pair, 0, groups*8)
	for i := 0; i < cap(pairs); i++ {
		a, b := sets[rng.Intn(groups)], sets[rng.Intn(groups)]
		pairs = append(pairs, pair{worker.Or(a, sets[rng.Intn(groups)]), worker.Or(b, sets[rng.Intn(groups)])})
	}
	hostBits := []int{16, 17, 18, 19, 20, 21, 22, 23}

	var andNS, existsNS time.Duration
	for r := 0; r < rounds; r++ {
		worker.ClearCache()
		start := time.Now()
		for _, p := range pairs {
			worker.And(p.a, p.b)
		}
		andNS += time.Since(start)
		worker.ClearCache()
		start = time.Now()
		for _, p := range pairs {
			worker.Exists(p.a, hostBits...)
		}
		existsNS += time.Since(start)
	}
	ops := float64(rounds * len(pairs))
	w.res.Values["bdd.and_ns_per_op"] = float64(andNS.Nanoseconds()) / ops
	w.res.Values["bdd.exists_ns_per_op"] = float64(existsNS.Nanoseconds()) / ops
}

// bddTransfer times exporting a converged state's predicates and
// importing them into a fresh manager — the kernel under the SRC codec.
func (w *walker) bddTransfer(st *coldState) error {
	roots := srcHandles(st.eng, st.res)
	var blob []byte
	start := time.Now()
	blob = st.eng.Space.M.Export(roots...)
	w.res.Values["bdd.export_ms"] = ms(time.Since(start))
	fresh := symbolic.NewSpace(len(st.eng.Net.Externals))
	start = time.Now()
	if _, err := fresh.M.Import(blob); err != nil {
		return fmt.Errorf("bdd import: %w", err)
	}
	w.res.Values["bdd.import_ms"] = ms(time.Since(start))
	return nil
}

// childWalk runs the layer walk for one workload kind in a fresh process.
func childWalk(args []string) int {
	fs := flag.NewFlagSet("walk", flag.ContinueOnError)
	kind := fs.String("kind", "cold", "cold, restart or delta")
	cfgPath := fs.String("config", "", "configuration file")
	propList := fs.String("props", "", "comma-separated properties")
	storeDir := fs.String("store", "", "store directory (cold: written to; restart: read from)")
	patchPath := fs.String("patches", "", "JSON list of patches (delta)")
	seed := fs.Int64("seed", 1, "pairing seed of the BDD kernel benchmark")
	workers := fs.Int("workers", 0, "engine workers, as expresso.Options.Workers")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res := &childResult{Walk: &walkResult{Values: map[string]float64{}}}
	fail := func(err error) int {
		res.Error = err.Error()
		return emit(res)
	}
	props, err := parseProps(*propList)
	if err != nil {
		return fail(err)
	}
	text, err := os.ReadFile(*cfgPath)
	if err != nil {
		return fail(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), coldTimeout)
	defer cancel()
	w := &walker{ctx: ctx, rec: newRecorder(), tracer: expresso.NewTracer(), res: res.Walk, workers: *workers}
	w.routing, w.forwarding = pipeline.SplitProperties(props)

	switch *kind {
	case "cold":
		if *storeDir != "" {
			if w.disk, err = store.OpenDisk(*storeDir, 0); err != nil {
				return fail(err)
			}
		}
		st, err := w.cold(string(text))
		if err != nil {
			return fail(err)
		}
		sums := sumTrace(w.tracer.Finish())
		res.Walk.Values["spf.fib_ms"] = float64(sums.FIBNS) / 1e6
		res.Walk.Values["spf.forward_ms"] = float64(sums.ForwardNS) / 1e6
		res.Walk.Values["spf.raw_pecs"] = float64(sums.RawPECs)
		if w.disk != nil {
			res.Walk.Values["store.put_bytes"] = float64(w.disk.Stats().WriteBytes)
			if err := w.bddTransfer(st); err != nil {
				return fail(err)
			}
		}
		w.bddKernels(*seed)
	case "restart":
		if err := w.restart(string(text), *storeDir); err != nil {
			return fail(err)
		}
	case "delta":
		var patches []expresso.Patch
		raw, err := os.ReadFile(*patchPath)
		if err == nil {
			err = json.Unmarshal(raw, &patches)
		}
		if err != nil {
			return fail(err)
		}
		w.tracer = nil // the baseline is set-up; delta events come from the daemon's traces
		w.rec.op = 0
		st, err := w.cold(string(text))
		if err != nil {
			return fail(err)
		}
		res.Walk.Reports = nil
		optsKey := expresso.Options{Properties: props}.CacheKey()
		if err := w.deltas(st, string(text), patches, optsKey); err != nil {
			return fail(err)
		}
		w.bddKernels(*seed)
	default:
		return fail(fmt.Errorf("unknown walk kind %q", *kind))
	}
	res.Walk.Spans = w.rec.spans
	return emit(res)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Package service implements the long-running Expresso verification
// daemon: an HTTP+JSON API over a bounded worker pool with a FIFO job
// queue, per-job deadlines, a digest-keyed LRU result cache, and graceful
// drain. It turns the one-shot CLI pipeline (Load → VerifyContext) into a
// serving layer that amortizes repeated verifications and bounds each
// request's cost.
package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/expresso-verify/expresso"
	"github.com/expresso-verify/expresso/internal/bdd"
)

// Metrics holds the service counters exposed on /metrics. All fields are
// safe for concurrent use.
type Metrics struct {
	// JobsAccepted counts verification requests admitted (enqueued or
	// answered from cache).
	JobsAccepted atomic.Int64
	// JobsCompleted counts jobs that ran to a successful Report.
	JobsCompleted atomic.Int64
	// JobsFailed counts jobs whose verification returned a
	// non-cancellation error (e.g. a config parse error).
	JobsFailed atomic.Int64
	// JobPanics counts the failed jobs whose verification panicked (each
	// is in JobsFailed too); the worker recovered and kept serving.
	JobPanics atomic.Int64
	// JobsCancelled counts jobs stopped by cancellation or deadline.
	JobsCancelled atomic.Int64
	// JobsRejected counts submissions refused because the queue was full
	// or the server was draining.
	JobsRejected atomic.Int64
	// JobsCoalesced counts queued delta jobs retired because a newer delta
	// on the same (baseline, options) target superseded them.
	JobsCoalesced atomic.Int64
	// CacheHits / CacheMisses count result-cache lookups at submit time.
	CacheHits   atomic.Int64
	CacheMisses atomic.Int64
	// EngineRuns counts verifications that actually entered the EPVP
	// engine (i.e. were not answered from cache). The cache test asserts
	// on this.
	EngineRuns atomic.Int64

	mu         sync.Mutex
	stageNanos [5]int64 // load, SRC, routing analysis, SPF, forwarding analysis
	stageJobs  int64
	stageHists [5]histogram
	// Per-baseline SLO histograms ("" keys anonymous /v1/verify jobs):
	// queueWait is submit-to-start, verdict is submit-to-report — the
	// operator-facing delta-gatekeeper latencies. Cardinality is bounded
	// by the registered-baseline count, which the registry keeps small.
	queueWait map[string]*histogram
	verdict   map[string]*histogram
}

// histBuckets are the fixed upper bounds (seconds) of the stage-latency
// histograms, spanning sub-millisecond loads to minute-long SRC runs.
var histBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60,
}

// stageLabels index the per-stage aggregates in pipeline order.
var stageLabels = [5]string{"load", "src", "routing_analysis", "spf", "forwarding_analysis"}

// histogram is one fixed-bucket latency histogram. Guarded by Metrics.mu.
type histogram struct {
	counts [16]int64 // per-bucket observation counts; [15] is +Inf
	sum    float64
	count  int64
}

func (h *histogram) observe(seconds float64) {
	i := 0
	for i < len(histBuckets) && seconds > histBuckets[i] {
		i++
	}
	h.counts[i]++
	h.sum += seconds
	h.count++
}

// ObserveQueueWait records how long a job sat in the FIFO queue before a
// worker claimed it, labeled by the baseline it targets ("" = anonymous).
func (m *Metrics) ObserveQueueWait(baseline string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.queueWait == nil {
		m.queueWait = map[string]*histogram{}
	}
	h := m.queueWait[baseline]
	if h == nil {
		h = &histogram{}
		m.queueWait[baseline] = h
	}
	h.observe(d.Seconds())
}

// ObserveVerdict records a completed job's submit-to-report latency —
// queue wait plus verification — labeled by baseline ("" = anonymous).
func (m *Metrics) ObserveVerdict(baseline string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.verdict == nil {
		m.verdict = map[string]*histogram{}
	}
	h := m.verdict[baseline]
	if h == nil {
		h = &histogram{}
		m.verdict[baseline] = h
	}
	h.observe(d.Seconds())
}

// ObserveTiming accumulates one completed job's per-stage durations into
// both the cumulative counters and the stage-latency histograms.
func (m *Metrics) ObserveTiming(t expresso.Timing) {
	stages := [5]time.Duration{t.Load, t.SRC, t.RoutingAnalysis, t.SPF, t.ForwardingAnalysis}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, d := range stages {
		m.stageNanos[i] += int64(d)
		m.stageHists[i].observe(d.Seconds())
	}
	m.stageJobs++
}

// StageTotals returns the accumulated per-stage durations and the number
// of jobs they aggregate.
func (m *Metrics) StageTotals() (expresso.Timing, int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return expresso.Timing{
		Load:               time.Duration(m.stageNanos[0]),
		SRC:                time.Duration(m.stageNanos[1]),
		RoutingAnalysis:    time.Duration(m.stageNanos[2]),
		SPF:                time.Duration(m.stageNanos[3]),
		ForwardingAnalysis: time.Duration(m.stageNanos[4]),
	}, m.stageJobs
}

// Snapshot carries the point-in-time values the server supplies to
// WriteText alongside the Metrics counters: queue gauges, sizing, the
// verifier's cache and store state, and the binary's build identity.
type Snapshot struct {
	QueueDepth int
	// OldestQueuedSeconds is the age of the oldest still-queued job, 0
	// when nothing is waiting.
	OldestQueuedSeconds float64
	Workers             int
	EngineWorkers       int
	Baselines           int
	CacheStats          []expresso.StageCacheStat
	StoreStats          *expresso.StoreStats
	// Version/Revision/GoVersion label expresso_build_info.
	Version   string
	Revision  string
	GoVersion string
}

// WriteText renders the counters in Prometheus text exposition format.
// snap carries the point-in-time gauges supplied by the server.
func (m *Metrics) WriteText(w io.Writer, snap Snapshot) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("expresso_jobs_accepted_total", "Verification requests admitted.", m.JobsAccepted.Load())
	counter("expresso_jobs_completed_total", "Jobs finished with a report.", m.JobsCompleted.Load())
	counter("expresso_jobs_failed_total", "Jobs finished with an error.", m.JobsFailed.Load())
	counter("expresso_job_panics_total", "Failed jobs whose verification panicked (the worker recovered).", m.JobPanics.Load())
	counter("expresso_jobs_cancelled_total", "Jobs stopped by cancellation or deadline.", m.JobsCancelled.Load())
	counter("expresso_jobs_rejected_total", "Submissions refused (queue full or draining).", m.JobsRejected.Load())
	counter("expresso_jobs_coalesced_total", "Queued delta jobs superseded by a newer delta on the same target.", m.JobsCoalesced.Load())
	counter("expresso_cache_hits_total", "Result-cache hits.", m.CacheHits.Load())
	counter("expresso_cache_misses_total", "Result-cache misses.", m.CacheMisses.Load())
	counter("expresso_engine_runs_total", "Verifications that entered the EPVP engine.", m.EngineRuns.Load())
	gauge("expresso_queue_depth", "Jobs waiting in the FIFO queue.", int64(snap.QueueDepth))
	fmt.Fprintf(w, "# HELP expresso_queue_oldest_seconds Age of the oldest still-queued job.\n# TYPE expresso_queue_oldest_seconds gauge\nexpresso_queue_oldest_seconds %.6f\n",
		snap.OldestQueuedSeconds)
	gauge("expresso_workers", "Size of the worker pool.", int64(snap.Workers))
	gauge("expresso_engine_workers", "Engine goroutines per verification job.", int64(snap.EngineWorkers))
	gauge("expresso_baselines", "Registered named baselines.", int64(snap.Baselines))
	fmt.Fprintf(w, "# HELP expresso_build_info Build identity of the running binary (value is constant 1).\n# TYPE expresso_build_info gauge\nexpresso_build_info{version=%q,revision=%q,go=%q} 1\n",
		snap.Version, snap.Revision, snap.GoVersion)

	rc := bdd.GlobalReclaimStats()
	counter("expresso_bdd_reclaims_total", "Dead-node sweeps across all BDD managers.", rc.Runs)
	counter("expresso_bdd_reclaimed_nodes_total", "Slab slots freed by dead-node sweeps.", rc.Freed)
	fmt.Fprintf(w, "# HELP expresso_bdd_reclaim_pause_seconds_total Cumulative stop-the-world sweep pause.\n# TYPE expresso_bdd_reclaim_pause_seconds_total counter\nexpresso_bdd_reclaim_pause_seconds_total %.6f\n",
		rc.Pause.Seconds())

	ro := bdd.GlobalReorderStats()
	counter("expresso_bdd_reorders_total", "Dynamic variable-reordering (sifting) passes across all BDD managers.", ro.Runs)
	counter("expresso_bdd_reorder_nodes_freed_total", "Live nodes eliminated by reordering passes.", ro.Freed)
	counter("expresso_bdd_reorder_swaps_total", "Adjacent-level swaps executed by reordering passes.", ro.Swaps)
	fmt.Fprintf(w, "# HELP expresso_bdd_reorder_pause_seconds_total Cumulative stop-the-world reordering pause.\n# TYPE expresso_bdd_reorder_pause_seconds_total counter\nexpresso_bdd_reorder_pause_seconds_total %.6f\n",
		ro.Pause.Seconds())

	totals, jobs := m.StageTotals()
	stage := func(name string, d time.Duration) {
		full := "expresso_stage_" + name + "_seconds_total"
		fmt.Fprintf(w, "# HELP %s Cumulative %s stage time.\n# TYPE %s counter\n%s %.6f\n",
			full, name, full, full, d.Seconds())
	}
	stage("load", totals.Load)
	stage("src", totals.SRC)
	stage("routing_analysis", totals.RoutingAnalysis)
	stage("spf", totals.SPF)
	stage("forwarding_analysis", totals.ForwardingAnalysis)
	counter("expresso_stage_jobs_total", "Jobs aggregated into the stage timings.", jobs)

	m.mu.Lock()
	hists := m.stageHists
	m.mu.Unlock()
	fmt.Fprintf(w, "# HELP expresso_stage_duration_seconds Per-stage verification latency.\n# TYPE expresso_stage_duration_seconds histogram\n")
	for i, label := range stageLabels {
		h := &hists[i]
		var cum int64
		for b, le := range histBuckets {
			cum += h.counts[b]
			fmt.Fprintf(w, "expresso_stage_duration_seconds_bucket{stage=%q,le=%q} %d\n",
				label, strconv.FormatFloat(le, 'g', -1, 64), cum)
		}
		cum += h.counts[len(histBuckets)]
		fmt.Fprintf(w, "expresso_stage_duration_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", label, cum)
		fmt.Fprintf(w, "expresso_stage_duration_seconds_sum{stage=%q} %.6f\n", label, h.sum)
		fmt.Fprintf(w, "expresso_stage_duration_seconds_count{stage=%q} %d\n", label, h.count)
	}

	// Per-baseline SLO histograms. Keys are sorted so scrapes are stable.
	m.mu.Lock()
	qw := make(map[string]histogram, len(m.queueWait))
	for k, h := range m.queueWait {
		qw[k] = *h
	}
	vd := make(map[string]histogram, len(m.verdict))
	for k, h := range m.verdict {
		vd[k] = *h
	}
	m.mu.Unlock()
	labeledHist := func(name, help string, hs map[string]histogram) {
		if len(hs) == 0 {
			return
		}
		keys := make([]string, 0, len(hs))
		for k := range hs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		for _, k := range keys {
			h := hs[k]
			var cum int64
			for b, le := range histBuckets {
				cum += h.counts[b]
				fmt.Fprintf(w, "%s_bucket{baseline=%q,le=%q} %d\n",
					name, k, strconv.FormatFloat(le, 'g', -1, 64), cum)
			}
			cum += h.counts[len(histBuckets)]
			fmt.Fprintf(w, "%s_bucket{baseline=%q,le=\"+Inf\"} %d\n", name, k, cum)
			fmt.Fprintf(w, "%s_sum{baseline=%q} %.6f\n", name, k, h.sum)
			fmt.Fprintf(w, "%s_count{baseline=%q} %d\n", name, k, h.count)
		}
	}
	labeledHist("expresso_job_queue_wait_seconds",
		"Submit-to-start latency by baseline (\"\" = anonymous jobs).", qw)
	labeledHist("expresso_job_verdict_seconds",
		"Submit-to-report latency by baseline (\"\" = anonymous jobs).", vd)

	cacheStats := snap.CacheStats
	storeStats := snap.StoreStats
	if len(cacheStats) > 0 {
		fmt.Fprintf(w, "# HELP expresso_stage_cache_hits_total Stage-cache hits by pipeline stage.\n# TYPE expresso_stage_cache_hits_total counter\n")
		for _, st := range cacheStats {
			fmt.Fprintf(w, "expresso_stage_cache_hits_total{stage=%q} %d\n", st.Stage, st.Hits)
		}
		fmt.Fprintf(w, "# HELP expresso_stage_cache_misses_total Stage-cache misses by pipeline stage.\n# TYPE expresso_stage_cache_misses_total counter\n")
		for _, st := range cacheStats {
			fmt.Fprintf(w, "expresso_stage_cache_misses_total{stage=%q} %d\n", st.Stage, st.Misses)
		}
		fmt.Fprintf(w, "# HELP expresso_stage_cache_entries Stage-cache resident artifacts by pipeline stage.\n# TYPE expresso_stage_cache_entries gauge\n")
		for _, st := range cacheStats {
			fmt.Fprintf(w, "expresso_stage_cache_entries{stage=%q} %d\n", st.Stage, st.Entries)
		}
		var warms int64
		for _, st := range cacheStats {
			warms += st.WarmStarts
		}
		counter("expresso_warm_starts_total", "SRC computations warm-started from a cached fixed point.", warms)
	}

	if storeStats != nil {
		counter("expresso_store_hits_total", "Artifact-store blobs served (corrupt blobs count as misses).", storeStats.Hits)
		counter("expresso_store_misses_total", "Artifact-store lookups that missed.", storeStats.Misses)
		counter("expresso_store_writes_total", "Artifact blobs written through to the store.", storeStats.Writes)
		counter("expresso_store_write_bytes_total", "Bytes written to the artifact store (framed).", storeStats.WriteBytes)
		counter("expresso_store_evictions_total", "Artifact blobs evicted by the store's size budget.", storeStats.Evictions)
	}
}

// Package service implements the long-running Expresso verification
// daemon: an HTTP+JSON API over a bounded worker pool with a FIFO job
// queue, per-job deadlines, a digest-keyed LRU result cache, and graceful
// drain. It turns the one-shot CLI pipeline (Load → VerifyContext) into a
// serving layer that amortizes repeated verifications and bounds each
// request's cost.
package service

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/expresso-verify/expresso"
)

// Metrics holds the service counters and latency histograms. All fields are
// safe for concurrent use; Server.Snapshot is the one reader the endpoints
// have.
type Metrics struct {
	// JobsAccepted counts jobs admitted (enqueued or answered from cache):
	// verifications, deltas and baseline registrations alike.
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

	mu sync.Mutex
	// stages is the per-stage latency of completed jobs, by stageLabels.
	// queueWait is submit-to-start and verdict submit-to-report, by the
	// baseline a delta job targets ("" keys every other job): the
	// operator-facing gatekeeper latencies. Cardinality is bounded by the
	// registered-baseline count, which the registry keeps small.
	stages, queueWait, verdict histograms
}

func newMetrics() *Metrics {
	return &Metrics{stages: histograms{}, queueWait: histograms{}, verdict: histograms{}}
}

// histBuckets are the fixed upper bounds (seconds) of the latency
// histograms, spanning sub-millisecond loads to minute-long SRC runs.
var histBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60,
}

// stageLabels are the stage histograms' labels, in pipeline order.
var stageLabels = []string{"load", "src", "routing_analysis", "spf", "forwarding_analysis"}

// histogram is one fixed-bucket latency histogram.
type histogram struct {
	counts [16]int64 // per-bucket observation counts; [15] is +Inf
	sum    float64
	count  int64
}

func (h *histogram) observe(d time.Duration) {
	seconds := d.Seconds()
	i := 0
	for i < len(histBuckets) && seconds > histBuckets[i] {
		i++
	}
	h.counts[i]++
	h.sum += seconds
	h.count++
}

// histograms is one labeled histogram family. Guarded by Metrics.mu.
type histograms map[string]*histogram

func (hs histograms) at(label string) *histogram {
	h := hs[label]
	if h == nil {
		h = &histogram{}
		hs[label] = h
	}
	return h
}

// series is one labeled histogram of a family, copied out for rendering.
type series struct {
	label string
	histogram
}

// snapshot copies the family out: the given labels in that order (an
// unobserved one reads zero), or every observed label, sorted so that
// scrapes are stable, when none are given.
func (hs histograms) snapshot(labels []string) []series {
	if labels == nil {
		for l := range hs {
			labels = append(labels, l)
		}
		sort.Strings(labels)
	}
	out := make([]series, len(labels))
	for i, l := range labels {
		out[i].label = l
		if h := hs[l]; h != nil {
			out[i].histogram = *h
		}
	}
	return out
}

// observe records one latency under label in family (m.queueWait or
// m.verdict).
func (m *Metrics) observe(family histograms, label string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	family.at(label).observe(d)
}

// ObserveTiming records one completed job's per-stage durations.
func (m *Metrics) ObserveTiming(t expresso.Timing) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, d := range []time.Duration{t.Load, t.SRC, t.RoutingAnalysis, t.SPF, t.ForwardingAnalysis} {
		m.stages.at(stageLabels[i]).observe(d)
	}
}

// sample is one counter family.
type sample struct {
	name, help string
	value      int64
}

// read copies everything out: the counters as the families /metrics
// announces them, and the three histogram families.
func (m *Metrics) read() (counters []sample, stages, queueWait, verdict []series) {
	counters = []sample{
		{"expresso_jobs_accepted_total", "Jobs admitted (verifications, deltas, baseline registrations).", m.JobsAccepted.Load()},
		{"expresso_jobs_completed_total", "Jobs finished with a report.", m.JobsCompleted.Load()},
		{"expresso_jobs_failed_total", "Jobs finished with an error.", m.JobsFailed.Load()},
		{"expresso_job_panics_total", "Failed jobs whose verification panicked (the worker recovered).", m.JobPanics.Load()},
		{"expresso_jobs_cancelled_total", "Jobs stopped by cancellation or deadline.", m.JobsCancelled.Load()},
		{"expresso_jobs_rejected_total", "Submissions refused (queue full or draining).", m.JobsRejected.Load()},
		{"expresso_jobs_coalesced_total", "Queued delta jobs superseded by a newer delta on the same target.", m.JobsCoalesced.Load()},
		{"expresso_cache_hits_total", "Result-cache hits.", m.CacheHits.Load()},
		{"expresso_cache_misses_total", "Result-cache misses.", m.CacheMisses.Load()},
		{"expresso_engine_runs_total", "Verifications that entered the EPVP engine.", m.EngineRuns.Load()},
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return counters, m.stages.snapshot(stageLabels), m.queueWait.snapshot(nil), m.verdict.snapshot(nil)
}

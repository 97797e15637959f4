package service

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	rtdebug "runtime/debug"
	"strconv"
	"sync"
	"time"

	"github.com/expresso-verify/expresso"
	"github.com/expresso-verify/expresso/internal/bdd"
)

// Snapshot is every number the daemon reports, read at one moment by
// Server.Snapshot. /metrics, /healthz, /debug/stats, /debug/queue and
// /debug/bdd are renderings of one: none of them reads the server.
type Snapshot struct {
	Time  time.Time
	Build buildIdentity
	// Counters are the job and result-cache counters, as /metrics families.
	Counters []sample
	Queue    QueueStats
	// Workers is the pool size, EngineWorkers the engine goroutines per job.
	Workers, EngineWorkers int
	// Stages is the per-stage latency of completed jobs, in pipeline order;
	// QueueWait and Verdict are the per-baseline SLO histograms.
	Stages, QueueWait, Verdict []series
	Baselines                  int
	Cache                      []expresso.StageCacheStat
	Store                      *expresso.StoreStats // nil without a store
	// Reclaim is the process-wide sweep total over all BDD managers.
	Reclaim bdd.ReclaimStats
	Runtime debugStats
	// Managers profiles every live BDD manager (registered baselines and
	// cached SRC artifacts). Only read when asked for: each profile is an
	// O(slab) walk under that manager's run lock, briefly serializing
	// against the verifications sharing it.
	Managers []expresso.BDDProfile
}

// buildIdentity names the running binary, read once from the embedded
// module metadata.
type buildIdentity struct {
	Version   string `json:"version,omitempty"`
	Revision  string `json:"revision,omitempty"`
	GoVersion string `json:"go_version"`
}

var buildInfo = sync.OnceValue(func() buildIdentity {
	id := buildIdentity{GoVersion: runtime.Version()}
	if bi, ok := rtdebug.ReadBuildInfo(); ok {
		id.Version = bi.Main.Version
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				id.Revision = kv.Value
			}
		}
	}
	return id
})

// debugStats is the GET /debug/stats body.
type debugStats struct {
	Goroutines   int       `json:"goroutines"`
	GOMAXPROCS   int       `json:"gomaxprocs"`
	NumCPU       int       `json:"num_cpu"`
	HeapAlloc    uint64    `json:"heap_alloc_bytes"`
	HeapSys      uint64    `json:"heap_sys_bytes"`
	HeapObjects  uint64    `json:"heap_objects"`
	TotalAlloc   uint64    `json:"total_alloc_bytes"`
	NumGC        uint32    `json:"num_gc"`
	PauseTotalNS uint64    `json:"gc_pause_total_ns"`
	Time         time.Time `json:"time"`
}

// Snapshot reads the server's state. profiles asks for Managers too.
func (s *Server) Snapshot(profiles bool) *Snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sn := &Snapshot{
		Time:          time.Now(),
		Build:         buildInfo(),
		Queue:         s.queueStats(),
		Workers:       s.cfg.Workers,
		EngineWorkers: s.cfg.EngineWorkers,
		Baselines:     s.verifier.BaselineCount(),
		Cache:         s.verifier.CacheStats(),
		Reclaim:       bdd.GlobalReclaimStats(),
	}
	sn.Runtime = debugStats{
		Goroutines:   runtime.NumGoroutine(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		HeapAlloc:    ms.HeapAlloc,
		HeapSys:      ms.HeapSys,
		HeapObjects:  ms.HeapObjects,
		TotalAlloc:   ms.TotalAlloc,
		NumGC:        ms.NumGC,
		PauseTotalNS: ms.PauseTotalNs,
		Time:         sn.Time,
	}
	sn.Counters, sn.Stages, sn.QueueWait, sn.Verdict = s.Metrics.read()
	if st, ok := s.verifier.StoreTraffic(); ok {
		sn.Store = &st
	}
	if profiles {
		sn.Managers = s.verifier.BDDProfiles()
	}
	return sn
}

// serve answers a GET with one JSON rendering of a fresh snapshot.
func (s *Server) serve(profiles bool, render func(*Snapshot) (int, any)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		code, body := render(s.Snapshot(profiles))
		writeJSON(w, code, body)
	}
}

// healthStatus is the GET /healthz body: liveness plus the build identity.
type healthStatus struct {
	Status string `json:"status"`
	buildIdentity
}

func (sn *Snapshot) health() (int, any) {
	if sn.Queue.Draining {
		return http.StatusServiceUnavailable, healthStatus{"draining", sn.Build}
	}
	return http.StatusOK, healthStatus{"ok", sn.Build}
}

// debugBDD is the GET /debug/bdd body: one profile per live BDD manager
// plus the process-wide reclamation totals.
type debugBDD struct {
	Managers []expresso.BDDProfile `json:"managers"`
	Reclaim  bdd.ReclaimStats      `json:"reclaim"`
	Time     time.Time             `json:"time"`
}

func (sn *Snapshot) profiles() (int, any) {
	return http.StatusOK, debugBDD{sn.Managers, sn.Reclaim, sn.Time}
}

// WriteMetrics renders the snapshot in Prometheus text exposition format.
func (sn *Snapshot) WriteMetrics(w io.Writer) {
	family := func(typ, name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	num := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	single := func(typ, name, help string, v float64) {
		family(typ, name, help)
		fmt.Fprintf(w, "%s %s\n", name, num(v))
	}
	counter := func(name, help string, v float64) { single("counter", name, help, v) }
	gauge := func(name, help string, v float64) { single("gauge", name, help, v) }
	// histograms renders one family, a series per value of label; an empty
	// family is not announced.
	histograms := func(name, help, label string, ss []series) {
		if len(ss) == 0 {
			return
		}
		family("histogram", name, help)
		for _, s := range ss {
			var cum int64
			for b, le := range histBuckets {
				cum += s.counts[b]
				fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d\n", name, label, s.label, num(le), cum)
			}
			fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, s.label, s.count)
			fmt.Fprintf(w, "%s_sum{%s=%q} %s\n", name, label, s.label, num(s.sum))
			fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, label, s.label, s.count)
		}
	}

	for _, c := range sn.Counters {
		counter(c.name, c.help, float64(c.value))
	}
	gauge("expresso_queue_depth", "Jobs waiting in the FIFO queue.", float64(sn.Queue.Depth))
	gauge("expresso_queue_oldest_seconds", "Age of the oldest still-queued job.", sn.Queue.OldestSeconds)
	gauge("expresso_workers", "Size of the worker pool.", float64(sn.Workers))
	gauge("expresso_engine_workers", "Engine goroutines per verification job.", float64(sn.EngineWorkers))
	gauge("expresso_baselines", "Registered named baselines.", float64(sn.Baselines))
	family("gauge", "expresso_build_info", "Build identity of the running binary (value is constant 1).")
	fmt.Fprintf(w, "expresso_build_info{version=%q,revision=%q,go=%q} 1\n", sn.Build.Version, sn.Build.Revision, sn.Build.GoVersion)

	counter("expresso_bdd_reclaims_total", "Dead-node sweeps across all BDD managers.", float64(sn.Reclaim.Runs))
	counter("expresso_bdd_reclaimed_nodes_total", "Slab slots freed by dead-node sweeps.", float64(sn.Reclaim.Freed))
	counter("expresso_bdd_reclaim_pause_seconds_total", "Cumulative stop-the-world sweep pause.", sn.Reclaim.Pause.Seconds())

	// The cumulative stage families are the stage histograms' sums and count.
	for _, s := range sn.Stages {
		counter("expresso_stage_"+s.label+"_seconds_total", "Cumulative "+s.label+" stage time.", s.sum)
	}
	counter("expresso_stage_jobs_total", "Jobs aggregated into the stage timings.", float64(sn.Stages[0].count))
	histograms("expresso_stage_duration_seconds", "Per-stage verification latency.", "stage", sn.Stages)
	histograms("expresso_job_queue_wait_seconds", "Submit-to-start latency by delta baseline (\"\" = every other job).", "baseline", sn.QueueWait)
	histograms("expresso_job_verdict_seconds", "Submit-to-report latency by delta baseline (\"\" = every other job).", "baseline", sn.Verdict)

	if len(sn.Cache) > 0 {
		perStage := func(typ, name, help string, v func(expresso.StageCacheStat) int64) {
			family(typ, name, help)
			for _, st := range sn.Cache {
				fmt.Fprintf(w, "%s{stage=%q} %d\n", name, st.Stage, v(st))
			}
		}
		perStage("counter", "expresso_stage_cache_hits_total", "Stage-cache hits by pipeline stage.", func(st expresso.StageCacheStat) int64 { return st.Hits })
		perStage("counter", "expresso_stage_cache_misses_total", "Stage-cache misses by pipeline stage.", func(st expresso.StageCacheStat) int64 { return st.Misses })
		perStage("gauge", "expresso_stage_cache_entries", "Stage-cache resident artifacts by pipeline stage.", func(st expresso.StageCacheStat) int64 { return int64(st.Entries) })
		var warms int64
		for _, st := range sn.Cache {
			warms += st.WarmStarts
		}
		counter("expresso_warm_starts_total", "SRC computations warm-started from a registered baseline's fixed point.", float64(warms))
	}
	if st := sn.Store; st != nil {
		counter("expresso_store_hits_total", "Artifact-store blobs served (corrupt blobs count as misses).", float64(st.Hits))
		counter("expresso_store_misses_total", "Artifact-store lookups that missed.", float64(st.Misses))
		counter("expresso_store_writes_total", "Artifact blobs written through to the store.", float64(st.Writes))
		counter("expresso_store_write_bytes_total", "Bytes written to the artifact store (framed).", float64(st.WriteBytes))
		counter("expresso_store_evictions_total", "Artifact blobs evicted by the store's size budget.", float64(st.Evictions))
	}
}

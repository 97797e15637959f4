package main

import (
	"encoding/json"
	"fmt"
)

// metricDef names one measurement. Bound (end-to-end metrics only) is the
// share of the parent's median by which the metric may worsen before a
// change counts as a regression; Floor is the absolute worsening below
// which -compare never flags it, whatever the ratio (the same
// threshold-plus-floor rule internal/traceview applies to stages). Exact
// marks counts that must repeat exactly between two runs of one commit.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Floor  float64
	Exact  bool
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, each for its own primary operation (see
// README.md for the metric x workload table):
//
//	check-*             a cold `expresso check` process
//	serve-delta-region1 one delta job against the daemon's pinned baseline
//	lifecycle-region1   a restarted process answering from the store
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.25},
	{Name: "verdict_p50_ms", Unit: "ms", Better: "lower", Bound: 0.2, Floor: 1},
	{Name: "cpu_per_op_s", Unit: "s", Better: "lower", Bound: 0.2, Floor: 0.005},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2, Floor: 4},
}

// perLayer are the traced run's metrics, one group per module. A metric
// reads 0 on a workload whose path never enters that layer (SPF on the
// routing-only workload, the store on the two check workloads).
var perLayer = []metricDef{
	{Name: "config.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "config.diff_ms", Unit: "ms", Better: "lower"},
	{Name: "config.apply_patch_ms", Unit: "ms", Better: "lower"},

	{Name: "topology.build_ms", Unit: "ms", Better: "lower"},

	{Name: "pipeline.op_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.digest_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.encode_src_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.decode_src_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.src_blob_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "pipeline.encode_spf_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.decode_spf_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.spf_blob_bytes", Unit: "bytes", Better: "lower"},
	{Name: "pipeline.memwarm_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.src_warm_share", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "pipeline.delta_drift_ratio", Unit: "ratio", Better: "lower"},
	{Name: "pipeline.workers1_over_default", Unit: "ratio", Better: "higher"},
	{Name: "pipeline.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "pipeline.unattributed_ms", Unit: "ms", Better: "lower"},

	{Name: "epvp.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "epvp.compile_nodes", Unit: "count", Better: "lower", Exact: true},
	{Name: "epvp.run_ms", Unit: "ms", Better: "lower"},
	{Name: "epvp.rounds", Unit: "count", Better: "lower", Exact: true},
	{Name: "epvp.nodes_created", Unit: "count", Better: "lower"},
	{Name: "epvp.rib_routes", Unit: "count", Better: "lower", Exact: true},
	{Name: "epvp.warm_compile_ms", Unit: "ms", Better: "lower"},
	{Name: "epvp.warm_run_ms", Unit: "ms", Better: "lower"},
	{Name: "epvp.warm_dirty_routers", Unit: "count", Better: "lower"},

	{Name: "bdd.created_nodes", Unit: "count", Better: "lower"},
	{Name: "bdd.peak_live_nodes", Unit: "count", Better: "lower"},
	{Name: "bdd.opcache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "bdd.unique_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "bdd.reclaims", Unit: "count", Better: "lower"},
	{Name: "bdd.reclaim_ms", Unit: "ms", Better: "lower"},
	{Name: "bdd.sifts", Unit: "count", Better: "lower"},
	{Name: "bdd.sift_ms", Unit: "ms", Better: "lower"},
	{Name: "bdd.and_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "bdd.exists_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "bdd.export_ms", Unit: "ms", Better: "lower"},
	{Name: "bdd.import_ms", Unit: "ms", Better: "lower"},

	{Name: "properties.routing_ms", Unit: "ms", Better: "lower"},
	{Name: "properties.forwarding_ms", Unit: "ms", Better: "lower"},

	{Name: "spf.run_ms", Unit: "ms", Better: "lower"},
	{Name: "spf.fib_ms", Unit: "ms", Better: "lower"},
	{Name: "spf.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "spf.raw_pecs", Unit: "count", Better: "lower", Exact: true},
	{Name: "spf.pecs", Unit: "count", Better: "lower", Exact: true},
	{Name: "spf.nodes_created", Unit: "count", Better: "lower"},

	{Name: "store.open_ms", Unit: "ms", Better: "lower"},
	{Name: "store.put_ms", Unit: "ms", Better: "lower"},
	{Name: "store.get_ms", Unit: "ms", Better: "lower"},
	{Name: "store.put_bytes", Unit: "bytes", Better: "lower"},
	{Name: "store.bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "store.hits", Unit: "count", Better: "higher", Exact: true},
	{Name: "store.misses", Unit: "count", Better: "lower", Exact: true},
	{Name: "store.writes", Unit: "count", Better: "lower", Exact: true},

	{Name: "service.register_baseline_ms", Unit: "ms", Better: "lower"},
	{Name: "service.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "service.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.delta_p80_ms", Unit: "ms", Better: "lower"},
	{Name: "service.burst_winner_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.runs_per_burst", Unit: "count", Better: "lower"},
	{Name: "service.coalesced_share", Unit: "ratio", Better: "higher"},
	{Name: "service.rejected", Unit: "count", Better: "lower", Exact: true},

	{Name: "lifecycle.cold_ms", Unit: "ms", Better: "lower"},

	{Name: "proc.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.gc_cycles_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.gc_cpu_share", Unit: "ratio", Better: "lower"},
}

// workloadDef is one benchmark workload: a fixture, a property set and
// the driver that measures it.
type workloadDef struct {
	Name    string
	Why     string
	Fixture string
	Props   string // comma-separated short property names
	run     func(*runContext) error
}

var workloads = []workloadDef{
	{
		Name:    "check-region4",
		Why:     "cold check, all properties: symbolic forwarding is ~80% of the work, so FIB/forward/PEC changes must show and compile/EPVP changes must not",
		Fixture: "region4", Props: "leak,hijack,traffic", run: runCheck,
	},
	{
		Name:    "check-fullold-routing",
		Why:     "cold check, routing properties on the largest fixture: policy compile plus EPVP rounds are ~90%, SPF never runs; the mirror image of check-region4",
		Fixture: "fullold", Props: "leak,hijack", run: runCheck,
	},
	{
		Name:    "serve-delta-region1",
		Why:     "daemon steady state: one-router deltas against a pinned baseline warm-start SRC but recompute SPF; bursts use the coalescing queue under contention",
		Fixture: "region1", Props: "leak,hijack,traffic", run: runServe,
	},
	{
		Name:    "lifecycle-region1",
		Why:     "store writes beside reads: a cold process writes every artifact through, a restarted one decodes them; small fixture, so fixed costs are a visible share",
		Fixture: "region1", Props: "leak,hijack,traffic", run: runLifecycle,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runSeconds is BENCHMARK.json's run_seconds: how long one timed run
// measures. The two check workloads floor at two cold operations.
const runSeconds = 15

// benchmarkJSON renders the contract file from the tables above, so the
// names the harness emits and the names BENCHMARK.json promises cannot
// drift apart (`go run ./benchmark -spec > BENCHMARK.json`).
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			return nil, fmt.Errorf("workload %s: why is %d characters (max 200)", w.Name, len(w.Why))
		}
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

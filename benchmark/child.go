package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime/metrics"
	"time"

	"github.com/expresso-verify/expresso"
	"github.com/expresso-verify/expresso/internal/service"
)

// Every cold operation runs in a fresh process — the benchmark binary
// re-executed as `-child <kind> ...` — because that is what an `expresso
// check` user pays, because the parent then reads the operation's peak
// RSS and CPU from the kernel, and because a fresh heap carries no
// collector debt from the previous operation. A child prints exactly one
// JSON line on stdout.

const (
	coldTimeout  = 120 * time.Second
	deltaTimeout = 30 * time.Second
)

// verifyRun is one verification inside a child.
type verifyRun struct {
	WallNS    int64                `json:"wall_ns"`
	Report    json.RawMessage      `json:"report"` // canonical: see canonicalReport
	Counts    map[string]int       `json:"counts"`
	Converged bool                 `json:"converged"`
	Stages    []expresso.StageInfo `json:"stages,omitempty"`
	CacheHit  bool                 `json:"cache_hit,omitempty"`
}

// traceSums condenses an Options.Trace document to the sums the layer
// metrics use. FIB and forward times are summed over routers, so with
// more than one engine worker they are busy time, not wall.
type traceSums struct {
	FIBNS     int64
	ForwardNS int64
	RawPECs   int
}

func sumTrace(tr *expresso.Trace) traceSums {
	var s traceSums
	for _, e := range tr.SPFFIBs {
		s.FIBNS += e.Duration
	}
	for _, e := range tr.SPFForwards {
		s.ForwardNS += e.Duration
	}
	for _, e := range tr.PECCoalesce {
		s.RawPECs += e.Raw
	}
	return s
}

// procStats is the Go runtime's view of a child, read once before exit.
type procStats struct {
	AllocBytes   float64 `json:"alloc_bytes"`
	AllocObjects float64 `json:"alloc_objects"`
	GCCycles     float64 `json:"gc_cycles"`
	GCCPUSeconds float64 `json:"gc_cpu_seconds"`
}

func readProcStats() procStats {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(samples)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return procStats{
		AllocBytes: val(samples[0]), AllocObjects: val(samples[1]),
		GCCycles: val(samples[2]), GCCPUSeconds: val(samples[3]),
	}
}

// childResult is the one line a cold or walk child prints.
type childResult struct {
	Error string               `json:"error,omitempty"`
	Runs  []verifyRun          `json:"runs,omitempty"`
	Walk  *walkResult          `json:"walk,omitempty"`
	Proc  procStats            `json:"proc"`
	Store *expresso.StoreStats `json:"store,omitempty"`
}

// canonicalReport is the report with everything that legitimately varies
// between two correct runs zeroed: timings (with the worker count they
// carry), heap size, and the EPVP iteration count, which a warm start
// lowers. What remains must be byte-identical across cold, warm,
// disk-restored and memory-cached answers to the same question.
func canonicalReport(rep *expresso.Report) json.RawMessage {
	c := *rep
	c.Timing = expresso.Timing{}
	c.HeapBytes = 0
	c.Iterations = 0
	out, err := json.Marshal(&c)
	if err != nil {
		panic(err) // Report is plain data
	}
	return out
}

func countsOf(rep *expresso.Report) map[string]int {
	out := map[string]int{}
	for k, n := range rep.CountByKind() {
		out[string(k)] = n
	}
	return out
}

func emit(res *childResult) int {
	res.Proc = readProcStats()
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 2
	}
	if res.Error != "" {
		return 1
	}
	return 0
}

// childCold verifies one configuration file from scratch: through
// expresso.Load + Network.Verify (the `expresso check` path), or, with
// -store, through a Verifier writing to / restoring from that directory.
// -again repeats the verification in the same process (the memory-warm
// answer).
func childCold(args []string) int {
	fs := flag.NewFlagSet("cold", flag.ContinueOnError)
	cfgPath := fs.String("config", "", "configuration file")
	propList := fs.String("props", "", "comma-separated properties")
	workers := fs.Int("workers", 0, "expresso.Options.Workers")
	storeDir := fs.String("store", "", "VerifierConfig.StoreDir")
	again := fs.Bool("again", false, "verify the same text a second time")
	traced := fs.Bool("traced", false, "attach expresso.NewTracer()")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res := &childResult{}
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

	var verifier *expresso.Verifier
	if *storeDir != "" {
		verifier = expresso.NewVerifier(expresso.VerifierConfig{StoreDir: *storeDir})
		if verifier.Store() == nil {
			return fail(fmt.Errorf("store directory %s did not open", *storeDir))
		}
	}
	rounds := 1
	if *again {
		rounds = 2
	}
	for i := 0; i < rounds; i++ {
		opts := expresso.Options{Properties: props, Workers: *workers}
		if *traced {
			opts.Trace = expresso.NewTracer()
		}
		run := verifyRun{}
		start := time.Now()
		var rep *expresso.Report
		if verifier == nil {
			network, err := expresso.Load(string(text))
			if err != nil {
				return fail(err)
			}
			if rep, err = network.VerifyContext(ctx, opts); err != nil {
				return fail(err)
			}
		} else {
			var info *expresso.RunInfo
			if rep, info, err = verifier.VerifyText(ctx, string(text), opts); err != nil {
				return fail(err)
			}
			run.Stages, run.CacheHit = info.Stages, info.CacheHit
		}
		run.WallNS = time.Since(start).Nanoseconds()
		run.Report, run.Counts = canonicalReport(rep), countsOf(rep)
		run.Converged = rep.Converged
		res.Runs = append(res.Runs, run)
	}
	if verifier != nil {
		if st, ok := verifier.StoreTraffic(); ok {
			res.Store = &st
		}
	}
	return emit(res)
}

// childServe is the daemon under test: service.New with the product's
// defaults behind a loopback listener. It prints {"addr": ...} once it
// accepts connections, serves until its stdin closes, drains, and prints
// its runtime statistics.
func childServe(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	traced := fs.Bool("traced", false, "service.Config.Trace")
	pool := fs.Int("pool", 0, "service.Config.Workers (0: the product default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	srv := service.New(service.Config{
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
		Trace:   *traced,
		Workers: *pool,
	})
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark serve:", err)
		return 2
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stdout, "{\"addr\":%q}\n", ln.Addr().String())

	_, _ = io.Copy(io.Discard, os.Stdin) // the parent closing stdin is the stop signal
	ctx, cancel := context.WithTimeout(context.Background(), deltaTimeout)
	defer cancel()
	_ = httpSrv.Shutdown(ctx) // Drain below reports a stuck job
	<-served
	res := &childResult{}
	if err := srv.Drain(ctx); err != nil {
		res.Error = "drain: " + err.Error()
	}
	return emit(res)
}

// childMain dispatches `-child <kind> ...`.
func childMain(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -child needs a kind")
		return 2
	}
	switch args[0] {
	case "cold":
		return childCold(args[1:])
	case "serve":
		return childServe(args[1:])
	case "walk":
		return childWalk(args[1:])
	}
	fmt.Fprintf(os.Stderr, "benchmark: unknown child kind %q\n", args[0])
	return 2
}

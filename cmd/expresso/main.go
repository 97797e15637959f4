// Command expresso verifies router configurations against arbitrary
// external routes, reproducing the Expresso verifier (SIGCOMM 2024).
//
// Usage:
//
//	expresso check -file net.cfg [-props leak,hijack,traffic] [-bte 11537:888] [-minus] [-json] [-trace out.json]
//	expresso check -dir configs/
//	expresso stats -file net.cfg
//	expresso gate [-props ...] [-json] old.cfg new.cfg
//	expresso store gc -dir /var/cache/expresso [-dry-run]
//	expresso trace summarize run.json
//	expresso trace diff [-threshold 0.25] [-json] old.json new.json
//	expresso trace top [-n 10] run.json
//	expresso gen -dataset full-old -out configs/
//	expresso serve -addr :8080 [-workers N] [-engine-workers M] [-queue N] [-cache N] [-timeout 5m]
//	               [-trace] [-debug-addr localhost:6060] [-log-format text|json]
//
// Datasets: region1..region4, full-old, full-new, internet2.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/expresso-verify/expresso"
	"github.com/expresso-verify/expresso/internal/epvp"
	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/pipeline"
	"github.com/expresso-verify/expresso/internal/properties"
	"github.com/expresso-verify/expresso/internal/service"
	"github.com/expresso-verify/expresso/internal/store"
	"github.com/expresso-verify/expresso/internal/symbolic"
	"github.com/expresso-verify/expresso/internal/telemetry"
	"github.com/expresso-verify/expresso/internal/traceview"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "check":
		cmdCheck(os.Args[2:])
	case "stats":
		cmdStats(os.Args[2:])
	case "gate":
		cmdGate(os.Args[2:])
	case "store":
		cmdStore(os.Args[2:])
	case "trace":
		cmdTrace(os.Args[2:])
	case "gen":
		cmdGen(os.Args[2:])
	case "search-policy":
		cmdSearchPolicy(os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: expresso check|stats|gate|store|trace|gen|search-policy|serve [flags]")
	os.Exit(2)
}

// fail prints a message under one "expresso: " prefix — most library
// errors carry it already — and exits with code.
func fail(code int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "expresso: "+strings.TrimPrefix(msg, "expresso: "))
	os.Exit(code)
}

func fatalf(format string, args ...any) { fail(1, format, args...) }

// configFlags declares the -file and -dir flags check, stats and
// search-policy share and returns the configuration text they name (see
// expresso.ReadConfig), to call once the flag set is parsed.
func configFlags(fs *flag.FlagSet) func() string {
	file := fs.String("file", "", "configuration file")
	dir := fs.String("dir", "", "directory of *.cfg files, each complete on its own")
	return func() string {
		path := *file
		if path == "" {
			path = *dir
		}
		if path == "" {
			fatalf("one of -file or -dir is required")
		}
		text, err := expresso.ReadConfig(path)
		if err != nil {
			fatalf("%v", err)
		}
		return text
	}
}

// verifyFlags declares the verification flags check and gate share and
// returns their translation, to call once the flag set is parsed.
func verifyFlags(fs *flag.FlagSet) func() (expresso.Options, error) {
	var names, defaults []string
	for _, p := range properties.Table {
		if p.Stage != properties.None {
			names = append(names, p.Name)
		}
		if p.Default {
			defaults = append(defaults, p.Name)
		}
	}
	props := fs.String("props", strings.Join(defaults, ","), "comma-separated properties: "+strings.Join(names, ","))
	bte := fs.String("bte", "", "community for the bte property, e.g. 11537:888")
	minus := fs.Bool("minus", false, "run Expresso- (concrete AS paths)")
	workers := fs.Int("workers", 0, "engine worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
	return func() (expresso.Options, error) {
		mode := "full"
		if *minus {
			mode = "minus"
		}
		names := strings.FieldsFunc(*props, func(r rune) bool { return r == ',' || r == ' ' })
		opts, err := expresso.ParseOptions(names, mode, *bte)
		opts.Workers = *workers
		return opts, err
	}
}

func cmdCheck(args []string) {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	configText := configFlags(fs)
	options := verifyFlags(fs)
	verbose := fs.Bool("v", false, "print every violation")
	asJSON := fs.Bool("json", false, "print the report as JSON instead of the table")
	explainCache := fs.Bool("explain-cache", false, "print per-stage provenance (status, seed, duration, key)")
	traceFile := fs.String("trace", "", "write a JSON run trace (per-stage spans, EPVP rounds, SPF events) to this file")
	storeDir := fs.String("store-dir", "", "persistent artifact store directory; stage artifacts are written through and served back on later runs")
	fs.Parse(args)

	opts, err := options()
	if err != nil {
		fatalf("%v", err)
	}
	if *traceFile != "" {
		opts.Trace = expresso.NewTracer()
	}

	// Always the staged verifier: it times the load stage too, so every
	// trace and every -explain-cache table covers all the stages.
	v := expresso.NewVerifier(expresso.VerifierConfig{StoreDir: *storeDir})
	rep, info, err := v.VerifyText(context.Background(), configText(), opts)
	if err != nil {
		fatalf("%v", err)
	}
	if !*explainCache {
		info = nil // provenance output wasn't asked for
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fatalf("%v", err)
		}
		if err := opts.Trace.WriteJSON(f); err != nil {
			fatalf("writing trace: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("writing trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", *traceFile)
	}
	if *asJSON {
		var payload any = rep
		if info != nil {
			payload = struct {
				Report  *expresso.Report  `json:"report"`
				RunInfo *expresso.RunInfo `json:"run_info"`
			}{rep, info}
		}
		out, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(out))
		if len(rep.Violations) > 0 {
			os.Exit(1)
		}
		return
	}
	if info != nil {
		fmt.Printf("digest:  %s\n", info.Digest)
		fmt.Printf("  %-20s %-4s %-12s %-10s %s\n", "STAGE", "STAT", "SEED", "DURATION", "KEY")
		for _, st := range info.Stages {
			key := st.Key
			if len(key) > 48 {
				key = key[:48] + "…"
			}
			// SEED is the SRC digest of the baseline a warm start grew from.
			seed := st.Seed
			if len(seed) > 12 {
				seed = seed[:12]
			}
			if seed == "" {
				seed = "-"
			}
			line := fmt.Sprintf("  %-20s %-4s %-12s %-10v %s", st.Stage, st.Status, seed, st.Duration.Round(time.Microsecond), key)
			if st.Note != "" {
				line += "  (" + st.Note + ")"
			}
			fmt.Println(line)
		}
	}
	s := rep.Stats
	fmt.Printf("network: %d nodes, %d links, %d peers, %d prefixes, %d config lines\n",
		s.Nodes, s.Links, s.Peers, s.Prefixes, s.ConfigLines)
	fmt.Printf("stages:  SRC %v | routing analysis %v | SPF %v | forwarding analysis %v | workers %d\n",
		rep.Timing.SRC.Round(1e6), rep.Timing.RoutingAnalysis.Round(1e6),
		rep.Timing.SPF.Round(1e6), rep.Timing.ForwardingAnalysis.Round(1e6),
		rep.Timing.Workers)
	fmt.Printf("state:   converged=%v iterations=%d symbolic routes=%d PECs=%d heap=%.1fMB\n",
		rep.Converged, rep.Iterations, rep.RIBRoutes, rep.PECs, float64(rep.HeapBytes)/1e6)
	fmt.Println(resultLine(rep))
	if len(rep.Violations) == 0 {
		return
	}
	if *verbose {
		for _, v := range rep.Violations {
			fmt.Printf("  %s\n", v)
		}
	}
	os.Exit(1)
}

// resultLine renders check's verdict: the violation count per property, the
// properties in the order the report lists their violations (routing
// analysis, then forwarding analysis).
func resultLine(rep *expresso.Report) string {
	if len(rep.Violations) == 0 {
		return "result:  no property violations"
	}
	line := fmt.Sprintf("result:  %d violations:", len(rep.Violations))
	counts := rep.CountByKind()
	for _, v := range rep.Violations {
		if n, ok := counts[v.Kind]; ok {
			line += fmt.Sprintf(" %s=%d", v.Kind, n)
			delete(counts, v.Kind)
		}
	}
	return line
}

// cmdGate diffs two configuration trees and verifies the new one as a
// delta against the old: the CI pre-merge check. Exit status encodes the
// verdict — 0 when the change introduces no new violations (pre-existing
// and fixed violations both pass), 1 on any new violation, 2 on
// operational errors (unreadable or unparsable configs, bad flags).
func cmdGate(args []string) {
	fs := flag.NewFlagSet("gate", flag.ExitOnError)
	options := verifyFlags(fs)
	asJSON := fs.Bool("json", false, "print the full GateResult as JSON")
	verbose := fs.Bool("v", false, "also list fixed and unchanged violations")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: expresso gate [flags] OLD NEW  (each a config file or a directory of *.cfg files)")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		os.Exit(2)
	}

	opts, err := options()
	if err != nil {
		fail(2, "%v", err)
	}

	oldText, err := expresso.ReadConfig(fs.Arg(0))
	if err != nil {
		fail(2, "%v", err)
	}
	newText, err := expresso.ReadConfig(fs.Arg(1))
	if err != nil {
		fail(2, "%v", err)
	}
	res, err := expresso.Gate(context.Background(), oldText, newText, opts)
	if err != nil {
		fail(2, "%v", err)
	}

	if *asJSON {
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fail(2, "%v", err)
		}
		fmt.Println(string(out))
		os.Exit(res.ExitCode())
	}

	fmt.Printf("old:     %s\n", res.OldDigest)
	fmt.Printf("new:     %s\n", res.NewDigest)
	fmt.Printf("patch:   %d section edit(s) across %d router(s)\n",
		len(res.Patch.Ops), len(res.Patch.Routers()))
	fmt.Printf("result:  %d new, %d fixed, %d unchanged violation(s)\n",
		len(res.New), len(res.Fixed), len(res.Unchanged))
	for _, v := range res.New {
		fmt.Printf("  NEW       %s\n", v)
	}
	if *verbose {
		for _, v := range res.Fixed {
			fmt.Printf("  FIXED     %s\n", v)
		}
		for _, v := range res.Unchanged {
			fmt.Printf("  UNCHANGED %s\n", v)
		}
	}
	if res.HasNewViolations() {
		fmt.Println("gate:    FAIL (change introduces new violations)")
	} else {
		fmt.Println("gate:    PASS")
	}
	os.Exit(res.ExitCode())
}

// cmdStore administers a persistent artifact-store directory. The one
// verb so far is gc: prune every blob no registered baseline's manifest
// references.
func cmdStore(args []string) {
	if len(args) < 1 || args[0] != "gc" {
		fmt.Fprintln(os.Stderr, "usage: expresso store gc -dir DIR [-dry-run]")
		os.Exit(2)
	}
	fs := flag.NewFlagSet("store gc", flag.ExitOnError)
	dir := fs.String("dir", "", "artifact store directory (required)")
	dryRun := fs.Bool("dry-run", false, "report what would be pruned without deleting anything")
	verbose := fs.Bool("v", false, "list every kept and pruned blob")
	fs.Parse(args[1:])
	if *dir == "" {
		fatalf("store gc: -dir is required")
	}
	d, err := store.OpenDisk(*dir, 0)
	if err != nil {
		fatalf("%v", err)
	}
	res := pipeline.GCStore(d, *dryRun)
	verb := "pruned"
	if *dryRun {
		verb = "would prune"
	}
	fmt.Printf("baselines: %d manifest(s) rooting %d blob(s)\n", res.Baselines, len(res.Kept))
	fmt.Printf("%s:    %d blob(s), %d bytes\n", verb, len(res.Pruned), res.PrunedBytes)
	if *verbose {
		for _, k := range res.Kept {
			fmt.Printf("  keep  %s/%s (%d bytes)\n", k.Stage, k.Digest, k.Size)
		}
		for _, k := range res.Pruned {
			fmt.Printf("  prune %s/%s (%d bytes)\n", k.Stage, k.Digest, k.Size)
		}
	}
}

// cmdTrace analyzes trace files written by `expresso check -trace` or
// `expresso serve -trace`: a human summary of one run, a stage-by-stage
// regression diff between two runs, or the largest BDD levels at the
// memory watermark. `trace diff` exits 1 when a regression beyond the
// threshold is detected, making it usable as a CI perf gate; operational
// errors (unreadable file, schema mismatch) exit 2, matching `gate`.
func cmdTrace(args []string) {
	traceUsage := func() {
		fmt.Fprintln(os.Stderr, `usage: expresso trace summarize FILE
       expresso trace diff [-threshold 0.25] [-json] OLD NEW
       expresso trace top [-n 10] FILE`)
		os.Exit(2)
	}
	if len(args) < 1 {
		traceUsage()
	}
	load := func(path string) *telemetry.Trace {
		tr, err := traceview.Load(path)
		if err != nil {
			fail(2, "%v", err)
		}
		return tr
	}
	switch args[0] {
	case "summarize":
		fs := flag.NewFlagSet("trace summarize", flag.ExitOnError)
		fs.Usage = traceUsage
		fs.Parse(args[1:])
		if fs.NArg() != 1 {
			traceUsage()
		}
		traceview.Summarize(os.Stdout, load(fs.Arg(0)))
	case "diff":
		fs := flag.NewFlagSet("trace diff", flag.ExitOnError)
		threshold := fs.Float64("threshold", 0.25, "relative stage-duration growth that counts as a regression")
		asJSON := fs.Bool("json", false, "print the full DiffReport as JSON")
		fs.Usage = traceUsage
		fs.Parse(args[1:])
		if fs.NArg() != 2 {
			traceUsage()
		}
		rep := traceview.Diff(load(fs.Arg(0)), load(fs.Arg(1)), *threshold)
		if *asJSON {
			out, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				fail(2, "%v", err)
			}
			fmt.Println(string(out))
		} else {
			traceview.WriteDiff(os.Stdout, rep)
		}
		if rep.Regressed {
			os.Exit(1)
		}
	case "top":
		fs := flag.NewFlagSet("trace top", flag.ExitOnError)
		n := fs.Int("n", 10, "number of BDD levels to list")
		fs.Usage = traceUsage
		fs.Parse(args[1:])
		if fs.NArg() != 1 {
			traceUsage()
		}
		if err := traceview.Top(os.Stdout, load(fs.Arg(0)), *n); err != nil {
			fail(2, "%v", err)
		}
	default:
		traceUsage()
	}
}

func cmdStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	configText := configFlags(fs)
	fs.Parse(args)
	net, err := expresso.Load(configText())
	if err != nil {
		fatalf("%v", err)
	}
	s := net.Topo.Statistics()
	fmt.Printf("nodes\tlinks\tpeers\tprefixes\tconfig-lines\n")
	fmt.Printf("%d\t%d\t%d\t%d\t%d\n", s.Nodes, s.Links, s.Peers, s.Prefixes, s.ConfigLines)
}

// cmdSearchPolicy reproduces Batfish's SearchRoutePolicies question on one
// policy: which symbolic routes does it permit or deny, and how does it
// transform them?
func cmdSearchPolicy(args []string) {
	fs := flag.NewFlagSet("search-policy", flag.ExitOnError)
	configText := configFlags(fs)
	router := fs.String("router", "", "router name")
	policy := fs.String("policy", "", "policy name")
	action := fs.String("action", "permit", "permit or deny")
	fs.Parse(args)

	net, err := expresso.Load(configText())
	if err != nil {
		fatalf("%v", err)
	}
	d := net.Topo.Devices[*router]
	if d == nil {
		fatalf("unknown router %q", *router)
	}
	pol := d.Policies[*policy]
	if pol == nil {
		fatalf("router %s has no policy %q", *router, *policy)
	}
	eng := epvp.New(net.Topo, epvp.FullMode())
	wantPermit := *action == "permit"
	results := symbolic.SearchPolicy(eng.Ctx(), pol, wantPermit)
	if len(results) == 0 {
		fmt.Printf("no routes are %sed by %s\n", *action, *policy)
		return
	}
	for i, r := range results {
		fmt.Printf("class %d: %s\n", i+1, symbolic.DescribeGuard(eng.Ctx(), r.Guard))
		if wantPermit {
			if r.LocalPref != 0 {
				fmt.Printf("  sets local-preference %d\n", r.LocalPref)
			}
			if r.MED != 0 {
				fmt.Printf("  sets med %d\n", r.MED)
			}
			for _, c := range r.AddsCommunities {
				fmt.Printf("  adds community %s\n", c)
			}
			if r.Prepends > 0 {
				fmt.Printf("  prepends %d AS hop(s)\n", r.Prepends)
			}
		}
	}
}

// cmdServe runs the long-lived verification daemon: an HTTP+JSON API over
// a bounded worker pool with a digest-keyed result cache. SIGTERM/SIGINT
// trigger a graceful drain: stop accepting, finish queued and running
// jobs, then exit.
func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	engineWorkers := fs.Int("engine-workers", 1, "engine goroutines per job (≤ 0 = the default, 1 (sequential))")
	queueDepth := fs.Int("queue", 64, "job queue depth")
	cacheSize := fs.Int("cache", 128, "report cache capacity (-1 keeps no report; fixed points stay in memory only for registered baselines)")
	timeout := fs.Duration("timeout", 5*time.Minute, "default per-job deadline")
	drainWait := fs.Duration("drain", 30*time.Second, "max graceful drain time on SIGTERM")
	logFormat := fs.String("log-format", "text", "structured log format: text or json")
	trace := fs.Bool("trace", false, "record a run trace per job, served on GET /v1/jobs/{id}/trace")
	debugAddr := fs.String("debug-addr", "", "serve pprof, /debug/stats, /debug/bdd, and /debug/queue on this extra address (e.g. localhost:6060)")
	storeDir := fs.String("store-dir", "", "persistent artifact store directory shared across replicas; restarts warm-start from it")
	storeBudget := fs.Int64("store-budget", 0, "artifact store size budget in bytes; LRU blobs are evicted past it (0 = unlimited)")
	fs.Parse(args)

	logger, err := telemetry.NewLogger(os.Stderr, *logFormat, slog.LevelInfo)
	if err != nil {
		fatalf("%v", err)
	}
	slog.SetDefault(logger)

	srv := service.New(service.Config{
		Workers:       *workers,
		EngineWorkers: *engineWorkers,
		QueueDepth:    *queueDepth,
		CacheSize:     *cacheSize,
		JobTimeout:    *timeout,
		Logger:        logger,
		Trace:         *trace,
		StoreDir:      *storeDir,
		StoreBudget:   *storeBudget,
	})
	srv.Start()
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("%v", err)
	}
	if *debugAddr != "" {
		// The profiling endpoints live on their own listener so they are
		// never reachable through the public API address.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatalf("%v", err)
		}
		go http.Serve(dln, srv.DebugHandler())
		logger.Info("debug endpoints listening", "addr", dln.Addr().String())
	}
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	logger.Info("listening", "addr", ln.Addr().String(), "workers", srv.Workers(),
		"queue", *queueDepth, "cache", *cacheSize, "trace", *trace)

	select {
	case sig := <-sigCh:
		logger.Info("signal received, draining", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		httpSrv.Shutdown(ctx)
		if err := srv.Drain(ctx); err != nil {
			logger.Error("drain incomplete", "error", err)
			os.Exit(1)
		}
		logger.Info("drained cleanly")
	case err := <-errCh:
		fatalf("%v", err)
	}
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	dataset := fs.String("dataset", "", "region1..region4, full-old, full-new, internet2")
	out := fs.String("out", ".", "output directory")
	peers := fs.Int("peers", 0, "restrict the number of external peers (0 = spec default)")
	fs.Parse(args)

	text, err := netgen.Dataset(*dataset, *peers)
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatalf("%v", err)
	}
	path := filepath.Join(*out, *dataset+".cfg")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("wrote %s (%d bytes)\n", path, len(text))
}

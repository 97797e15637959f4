// Command benchmark is the repository's measurement spine: four
// workloads, the end-to-end metrics an operator of `expresso check` and
// `expresso serve` waits for, and a layer walk that says where the time
// went. BENCHMARK.json at the repository root is its contract; README.md
// in this directory explains what each number means and what should move
// it.
//
//	go run ./benchmark                       every workload, end-to-end metrics
//	go run ./benchmark -trace 1              every workload, per-layer metrics + span files
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
//	                                         one run of one workload (the driver's form)
//	go run ./benchmark -runs 10 -out A.json  ten seeds per workload, kept as a set
//	go run ./benchmark -compare A.json B.json
//	go run ./benchmark -spec                 print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	// `-child` must come first: children parse their own flag sets.
	if len(os.Args) > 1 && (os.Args[1] == "-child" || os.Args[1] == "--child") {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:]))
}

// options are the harness's own flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	fixture  string
	dir      string
	runs     int
	out      string
	compare  bool
	spec     bool
}

func run(args []string) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run this one workload and print one result line (default: all workloads)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed: delta routers and prefixes, op order; seeds other than 1 also move netgen's seeded bugs")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long one timed run measures")
	fs.IntVar(&o.trace, "trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics and span files")
	fs.StringVar(&o.fixture, "fixture", "", "override every workload's fixture (testnet: the smoke test's tiny network)")
	fs.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "benchmark"), "directory for scratch files, span files and results")
	fs.IntVar(&o.runs, "runs", 1, "runs per workload when running all of them, seeds seed..seed+runs-1")
	fs.StringVar(&o.out, "out", "", "result file when running all workloads (default <dir>/results-trace<0|1>.json)")
	fs.BoolVar(&o.compare, "compare", false, "compare two result files given as arguments; exit 1 on a breach")
	fs.BoolVar(&o.spec, "spec", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case o.spec:
		doc, err := benchmarkJSON()
		if err != nil {
			return fatal(err)
		}
		os.Stdout.Write(doc)
		return 0
	case o.compare:
		if fs.NArg() != 2 {
			return fatal(fmt.Errorf("-compare needs two result files"))
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	case o.workload != "":
		return runOne(o)
	}
	return runAll(o)
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

// resultLine is the last line of a single-workload run: the contract's
// result object.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs one workload once and returns its result line.
func measure(o options) (*resultLine, error) {
	def, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.fixture != "" {
		def.Fixture = o.fixture
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	outDir, err := filepath.Abs(o.dir)
	if err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	rc := &runContext{
		def: def, seed: o.seed, seconds: o.seconds, traced: o.trace != 0,
		self: self, dir: scratch, outDir: outDir,
		propNames: strings.Split(def.Props, ","),
		metrics:   map[string]float64{},
	}
	if rc.props, err = parseProps(def.Props); err != nil {
		return nil, err
	}
	if err := def.run(rc); err != nil {
		return nil, err
	}

	defs := endToEnd
	if rc.traced {
		defs = perLayer
	}
	line := &resultLine{
		Correct: rc.failed == 0 && rc.attempted > 0, Attempted: rc.attempted, Failed: rc.failed,
		Metrics: map[string]metric{},
	}
	for _, m := range defs {
		line.Metrics[m.Name] = metric{Value: rc.metrics[m.Name], Unit: m.Unit}
	}
	for name := range rc.metrics {
		if _, ok := line.Metrics[name]; !ok {
			return nil, fmt.Errorf("workload %s set %q, which is not a declared metric of this run", def.Name, name)
		}
	}
	return line, nil
}

// runOne is the driver's form: one workload, one run, human-readable
// metrics first and the result object as the last line of stdout.
func runOne(o options) int {
	env := readEnv(o.seed)
	if env.noisy() {
		fmt.Println(env.noisyNote())
	}
	line, err := measure(o)
	if err != nil {
		return fatal(err)
	}
	printMetrics(o.workload, o.trace != 0, func(name string) []float64 { return []float64{line.Metrics[name].Value} })
	fmt.Printf("error_rate  %d failed / %d attempted\n", line.Failed, line.Attempted)
	out, err := json.Marshal(line)
	if err != nil {
		return fatal(err)
	}
	fmt.Println(string(out))
	if !line.Correct {
		return 1
	}
	return 0
}

// printMetrics prints every metric of a run kind by name with its unit:
// the median of the values given, and their spread when there are several.
func printMetrics(workload string, traced bool, values func(name string) []float64) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Printf("== %s\n", workload)
	for _, m := range defs {
		xs := values(m.Name)
		fmt.Printf("%-34s %14.4f %-6s", m.Name, median(xs), m.Unit)
		if len(xs) > 1 {
			fmt.Printf("  spread %5.1f%% of median over %d runs", 100*spread(xs), len(xs))
		}
		fmt.Println()
	}
}

// runAll runs every workload, each run in its own process (this binary
// re-executed in the driver's form), and writes the set as a result file.
func runAll(o options) int {
	self, err := os.Executable()
	if err != nil {
		return fatal(err)
	}
	env := readEnv(o.seed)
	file := &resultFile{
		Schema: resultSchema, Env: env, Noisy: env.noisy(),
		Traced: o.trace != 0, Seconds: o.seconds,
	}
	if file.Noisy {
		fmt.Println(env.noisyNote())
	}
	status := 0
	for _, def := range workloads {
		wr := workloadResult{Name: def.Name}
		start := time.Now()
		for r := 0; r < o.runs; r++ {
			rec, err := runProcess(self, o, def.Name, o.seed+int64(r))
			if err != nil {
				return fatal(fmt.Errorf("%s: %w", def.Name, err))
			}
			if !rec.Correct {
				status = 1
			}
			wr.Runs = append(wr.Runs, *rec)
		}
		wr.WallS = time.Since(start).Seconds()
		file.Workloads = append(file.Workloads, wr)
		printMetrics(def.Name, file.Traced, wr.values)
		fmt.Printf("error_rate  %d failed / %d attempted, %.1f s\n", wr.failed(), wr.attempted(), wr.WallS)
	}
	path := o.out
	if path == "" {
		path = filepath.Join(o.dir, fmt.Sprintf("results-trace%d.json", o.trace))
	}
	if err := file.write(path); err != nil {
		return fatal(err)
	}
	fmt.Println("results:", path)
	return status
}

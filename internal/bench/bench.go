// Package bench regenerates every table and figure of the paper's
// evaluation (§7). Each experiment prints rows mirroring the published
// table or plot series; EXPERIMENTS.md records paper-versus-measured
// results. The cmd/expresso-bench command and the repository-root
// bench_test.go both drive this package.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/expresso-verify/expresso"
	"github.com/expresso-verify/expresso/internal/enumerate"
	"github.com/expresso-verify/expresso/internal/minesweeper"
	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/topology"
)

// Config tunes experiment cost.
type Config struct {
	// Quick shrinks sweeps and datasets for fast smoke runs.
	Quick bool
	// MSBudget is the wall-clock budget per Minesweeper* data point; the
	// paper's analogue is its one-day timeout.
	MSBudget time.Duration
	// Workers is passed to expresso.Options.Workers for every Expresso run
	// (0 = GOMAXPROCS, 1 = sequential).
	Workers int
}

// dataset is a named, generated network.
type dataset struct {
	name string
	text string
}

func cspDataset(name string, spec netgen.CSPSpec) dataset {
	return dataset{name: name, text: netgen.CSP(spec)}
}

func (d dataset) load() (*expresso.Network, error) { return expresso.Load(d.text) }

func (d dataset) topo() (*topology.Network, error) {
	net, err := d.load()
	if err != nil {
		return nil, err
	}
	return net.Topo, nil
}

func allDatasets(quick bool) []dataset {
	out := []dataset{
		cspDataset("region1", netgen.CSPOldRegion(1)),
		cspDataset("region2", netgen.CSPOldRegion(2)),
		cspDataset("region3", netgen.CSPOldRegion(3)),
		cspDataset("region4", netgen.CSPOldRegion(4)),
		cspDataset("full(old)", netgen.CSPOldFull()),
	}
	if !quick {
		out = append(out,
			cspDataset("full(new)", netgen.CSPNewFull()),
			dataset{name: "Internet2", text: netgen.GenerateI2(netgen.Internet2())},
		)
	}
	return out
}

func heapMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// Table1 prints the dataset statistics (nodes, links, peers, prefixes,
// config lines).
func Table1(w io.Writer, cfg Config) error {
	fmt.Fprintf(w, "Table 1: dataset statistics\n")
	fmt.Fprintf(w, "%-11s %7s %7s %7s %9s %12s\n", "dataset", "nodes", "links", "peers", "prefixes", "config-lines")
	for _, d := range allDatasets(cfg.Quick) {
		topo, err := d.topo()
		if err != nil {
			return fmt.Errorf("%s: %v", d.name, err)
		}
		s := topo.Statistics()
		fmt.Fprintf(w, "%-11s %7d %7d %7d %9d %12d\n", d.name, s.Nodes, s.Links, s.Peers, s.Prefixes, s.ConfigLines)
	}
	return nil
}

// Table2 prints the violations found on the old and new CSP snapshots
// (RouteLeak / RouteHijack / TrafficHijack).
func Table2(w io.Writer, cfg Config) error {
	fmt.Fprintf(w, "Table 2: property violations on the CSP snapshots\n")
	fmt.Fprintf(w, "%-10s %10s %11s %13s %7s\n", "snapshot", "RouteLeak", "RouteHijack", "TrafficHijack", "total")
	specs := []struct {
		name string
		spec netgen.CSPSpec
	}{{"old", netgen.CSPOldFull()}}
	if cfg.Quick {
		// Quick mode shrinks the snapshot to a 20-peer subset: the
		// forwarding stage on the full snapshots is the most expensive
		// experiment in the suite.
		specs[0].name = "old(20 peers)"
		specs[0].spec = netgen.CSPOldFull().WithPeers(20)
	} else {
		specs = append(specs, struct {
			name string
			spec netgen.CSPSpec
		}{"new", netgen.CSPNewFull()})
	}
	for _, s := range specs {
		net, err := expresso.Load(netgen.CSP(s.spec))
		if err != nil {
			return err
		}
		rep, err := net.Verify(expresso.Options{Workers: cfg.Workers})
		if err != nil {
			return err
		}
		c := rep.CountByKind()
		fmt.Fprintf(w, "%-10s %10d %11d %13d %7d\n", s.name,
			c[expresso.RouteLeakFree], c[expresso.RouteHijackFree],
			c[expresso.TrafficHijackFree], len(rep.Violations))
	}
	fmt.Fprintf(w, "(paper: old 3/53/7 total 63; new 36/70/18 total 124)\n")
	return nil
}

// verifierRow is one (dataset, verifier) measurement.
type verifierRow struct {
	dataset  string
	verifier string
	runtime  time.Duration
	heapMB   float64
	timedOut bool
	found    int
}

func (r verifierRow) timeCell() string {
	if r.timedOut {
		return fmt.Sprintf(">%s TIMEOUT", r.runtime.Round(time.Second))
	}
	return fmt.Sprintf("%.3fs", r.runtime.Seconds())
}

// runExpressoLeak measures Expresso or Expresso- checking RouteLeakFree.
func runExpressoLeak(d dataset, minus bool, workers int) (verifierRow, error) {
	net, err := d.load()
	if err != nil {
		return verifierRow{}, err
	}
	opts := expresso.Options{Properties: []expresso.Kind{expresso.RouteLeakFree}, Workers: workers}
	name := "Expresso"
	if minus {
		opts.Mode = expresso.ExpressoMinusMode()
		name = "Expresso-"
	}
	start := time.Now()
	rep, err := net.Verify(opts)
	if err != nil {
		return verifierRow{}, err
	}
	return verifierRow{
		dataset: d.name, verifier: name,
		runtime: time.Since(start),
		heapMB:  float64(rep.HeapBytes) / 1e6,
		found:   len(rep.Violations),
	}, nil
}

// runMinesweeperLeak measures Minesweeper* checking RouteLeakFree under the
// configured budget. The check runs in a goroutine with a hard wall-clock
// cutoff: the encoding phase of large snapshots can itself exceed the
// budget (the paper's Minesweeper* hit its one-day timeout the same way),
// and the solver's own deadline only applies between queries.
func runMinesweeperLeak(d dataset, budget time.Duration) (verifierRow, error) {
	topo, err := d.topo()
	if err != nil {
		return verifierRow{}, err
	}
	type outcome struct {
		rep *minesweeper.Report
		err error
	}
	ch := make(chan outcome, 1)
	start := time.Now()
	go func() {
		rep, err := minesweeper.CheckRouteLeak(topo, minesweeper.Options{Timeout: budget})
		ch <- outcome{rep, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			return verifierRow{}, o.err
		}
		return verifierRow{
			dataset: d.name, verifier: "Minesweeper*",
			runtime:  o.rep.Elapsed,
			heapMB:   heapMB(),
			timedOut: o.rep.TimedOut,
			found:    o.rep.Violations,
		}, nil
	case <-time.After(budget + budget/2):
		// Abandon the run (the goroutine finishes on its own deadline).
		return verifierRow{
			dataset: d.name, verifier: "Minesweeper*",
			runtime:  time.Since(start),
			heapMB:   heapMB(),
			timedOut: true,
		}, nil
	}
}

// Fig6a prints runtime (and Figure 8a's memory) versus the number of
// external neighbors, checking RouteLeakFree on subsets of the old
// snapshot.
func Fig6a(w io.Writer, cfg Config) error {
	fmt.Fprintf(w, "Figure 6a / 8a: RouteLeakFree runtime and memory vs. number of neighbors\n")
	fmt.Fprintf(w, "%-6s %-13s %16s %10s %6s\n", "nbrs", "verifier", "runtime", "heap(MB)", "found")
	counts := []int{10, 30, 50, 70, 90}
	if cfg.Quick {
		counts = []int{10, 30}
	}
	for _, n := range counts {
		d := cspDataset(fmt.Sprintf("old-%dn", n), netgen.CSPOldFull().WithPeers(n))
		ms, err := runMinesweeperLeak(d, cfg.MSBudget)
		if err != nil {
			return err
		}
		printRow(w, n, ms)
		ex, err := runExpressoLeak(d, false, cfg.Workers)
		if err != nil {
			return err
		}
		printRow(w, n, ex)
		exm, err := runExpressoLeak(d, true, cfg.Workers)
		if err != nil {
			return err
		}
		printRow(w, n, exm)
	}
	return nil
}

func printRow(w io.Writer, n int, r verifierRow) {
	fmt.Fprintf(w, "%-6d %-13s %16s %10.1f %6d\n", n, r.verifier, r.timeCell(), r.heapMB, r.found)
}

// Fig6b prints runtime (and Figure 8b's memory) versus network size across
// the regions and full snapshots.
func Fig6b(w io.Writer, cfg Config) error {
	fmt.Fprintf(w, "Figure 6b / 8b: RouteLeakFree runtime and memory vs. network size\n")
	fmt.Fprintf(w, "%-11s %-13s %16s %10s %6s\n", "dataset", "verifier", "runtime", "heap(MB)", "found")
	datasets := []dataset{
		cspDataset("region1", netgen.CSPOldRegion(1)),
		cspDataset("region2", netgen.CSPOldRegion(2)),
		cspDataset("region3", netgen.CSPOldRegion(3)),
		cspDataset("region4", netgen.CSPOldRegion(4)),
		cspDataset("full(old)", netgen.CSPOldFull()),
	}
	if !cfg.Quick {
		datasets = append(datasets, cspDataset("full(new)", netgen.CSPNewFull()))
	}
	for _, d := range datasets {
		ms, err := runMinesweeperLeak(d, cfg.MSBudget)
		if err != nil {
			return err
		}
		printNamedRow(w, d.name, ms)
		ex, err := runExpressoLeak(d, false, cfg.Workers)
		if err != nil {
			return err
		}
		printNamedRow(w, d.name, ex)
		exm, err := runExpressoLeak(d, true, cfg.Workers)
		if err != nil {
			return err
		}
		printNamedRow(w, d.name, exm)
	}
	return nil
}

func printNamedRow(w io.Writer, name string, r verifierRow) {
	fmt.Fprintf(w, "%-11s %-13s %16s %10.1f %6d\n", name, r.verifier, r.timeCell(), r.heapMB, r.found)
}

// Fig6c prints Expresso's runtime (and Figure 8c's memory) under the four
// protocol-feature levels — none, t, t+c, t+c+a — checking RouteLeakFree
// and TrafficHijackFree with 10 external neighbors, as in §7.2.
func Fig6c(w io.Writer, cfg Config) error {
	fmt.Fprintf(w, "Figure 6c / 8c: runtime and memory vs. protocol features (10 neighbors)\n")
	fmt.Fprintf(w, "%-11s %-7s %12s %10s %6s\n", "dataset", "mode", "runtime", "heap(MB)", "found")
	datasets := []dataset{cspDataset("full(old)", netgen.CSPOldFull().WithPeers(10))}
	if !cfg.Quick {
		datasets = append(datasets, cspDataset("full(new)", netgen.CSPNewFull().WithPeers(10)))
	}
	modes := []struct {
		name string
		mode expresso.Mode
	}{
		{"none", expresso.Mode{}},
		{"t", expresso.Mode{TrafficPolicies: true}},
		{"t+c", expresso.Mode{TrafficPolicies: true, SymbolicCommunities: true}},
		{"t+c+a", expresso.FullMode()},
	}
	for _, d := range datasets {
		for _, m := range modes {
			net, err := d.load()
			if err != nil {
				return err
			}
			start := time.Now()
			rep, err := net.Verify(expresso.Options{
				Mode:       m.mode,
				Properties: []expresso.Kind{expresso.RouteLeakFree, expresso.TrafficHijackFree},
				Workers:    cfg.Workers,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-11s %-7s %11.3fs %10.1f %6d\n",
				d.name, m.name, time.Since(start).Seconds(), float64(rep.HeapBytes)/1e6, len(rep.Violations))
		}
	}
	return nil
}

// Table3 prints per-stage runtimes (SRC, routing analysis, SPF, forwarding
// analysis) with 10 external neighbors, as in the paper's Table 3.
func Table3(w io.Writer, cfg Config) error {
	fmt.Fprintf(w, "Table 3: per-stage runtime (seconds, 10 neighbors)\n")
	fmt.Fprintf(w, "%-11s %8s %12s %8s %12s\n", "dataset", "SRC", "RoutingProp", "SPF", "FwdProp")
	datasets := []dataset{
		cspDataset("region1", netgen.CSPOldRegion(1).WithPeers(10)),
		cspDataset("region2", netgen.CSPOldRegion(2).WithPeers(10)),
		cspDataset("region3", netgen.CSPOldRegion(3).WithPeers(10)),
		cspDataset("region4", netgen.CSPOldRegion(4).WithPeers(10)),
		cspDataset("full(old)", netgen.CSPOldFull().WithPeers(10)),
	}
	if !cfg.Quick {
		datasets = append(datasets, cspDataset("full(new)", netgen.CSPNewFull().WithPeers(10)))
	}
	for _, d := range datasets {
		net, err := d.load()
		if err != nil {
			return err
		}
		rep, err := net.Verify(expresso.Options{Workers: cfg.Workers})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-11s %8.3f %12.3f %8.3f %12.3f\n", d.name,
			rep.Timing.SRC.Seconds(), rep.Timing.RoutingAnalysis.Seconds(),
			rep.Timing.SPF.Seconds(), rep.Timing.ForwardingAnalysis.Seconds())
	}
	return nil
}

// Table4 prints the Internet2 BlockToExternal comparison: runtime, memory,
// and violations for Minesweeper*, Expresso, and Expresso-. The Bagpipe row
// reproduces the paper's reported numbers (the paper itself used Bagpipe's
// published results rather than running it).
func Table4(w io.Writer, cfg Config) error {
	fmt.Fprintf(w, "Table 4: BlockToExternal on Internet2\n")
	fmt.Fprintf(w, "%-14s %16s %10s %10s\n", "verifier", "runtime", "mem(GB)", "violations")
	fmt.Fprintf(w, "%-14s %16s %10s %10d   (reported in the Bagpipe paper)\n", "Bagpipe", "28594s (8h)", "-", 5)

	spec := netgen.Internet2()
	if cfg.Quick {
		spec.Peers = 30
		spec.Prefixes = 1000
		spec.CustomerPrefixLines = 3000
	}
	d := dataset{name: "Internet2", text: netgen.GenerateI2(spec)}

	topo, err := d.topo()
	if err != nil {
		return err
	}
	type outcome struct {
		rep *minesweeper.Report
		err error
	}
	ch := make(chan outcome, 1)
	start := time.Now()
	go func() {
		rep, err := minesweeper.CheckBlockToExternal(topo, netgen.BTECommunity, minesweeper.Options{Timeout: cfg.MSBudget})
		ch <- outcome{rep, err}
	}()
	var msTime string
	var msViolations int
	select {
	case o := <-ch:
		if o.err != nil {
			return o.err
		}
		msTime = fmt.Sprintf("%.1fs", o.rep.Elapsed.Seconds())
		if o.rep.TimedOut {
			msTime = fmt.Sprintf(">%s TIMEOUT", o.rep.Elapsed.Round(time.Second))
		}
		msViolations = o.rep.Violations
	case <-time.After(cfg.MSBudget + cfg.MSBudget/2):
		msTime = fmt.Sprintf(">%s TIMEOUT", time.Since(start).Round(time.Second))
	}
	fmt.Fprintf(w, "%-14s %16s %10.2f %10d\n", "Minesweeper*", msTime, heapMB()/1e3, msViolations)

	for _, minus := range []bool{false, true} {
		net, err := d.load()
		if err != nil {
			return err
		}
		opts := expresso.Options{Properties: []expresso.Kind{expresso.BlockToExternal}, BTE: netgen.BTECommunity, Workers: cfg.Workers}
		name := "Expresso"
		if minus {
			opts.Mode = expresso.ExpressoMinusMode()
			name = "Expresso-"
		}
		start := time.Now()
		rep, err := net.Verify(opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s %15.1fs %10.2f %10d\n", name,
			time.Since(start).Seconds(), float64(rep.HeapBytes)/1e9, len(rep.Violations))
	}
	fmt.Fprintf(w, "(paper: Bagpipe 28594s/5, Minesweeper* 2282s/45GB/0, Expresso 655s/12GB/4, Expresso- 338s/12GB/4)\n")
	return nil
}

// Enumeration prints the Batfish-style enumeration baseline's projected
// cost (the §7 remark: 1000 environments already took 2 hours).
func Enumeration(w io.Writer, cfg Config) error {
	fmt.Fprintf(w, "Enumeration baseline (Batfish/SRE-style): RouteLeakFree on full(old)\n")
	spec := netgen.CSPOldFull()
	if cfg.Quick {
		spec = netgen.CSPOldRegion(1)
	}
	topo, err := dataset{text: netgen.CSP(spec)}.topo()
	if err != nil {
		return err
	}
	var prefixes []route.Prefix
	prefixes = append(prefixes, topo.InternalPrefixes()...)
	if len(prefixes) > 8 {
		prefixes = prefixes[:8]
	}
	rep := enumerate.CheckRouteLeak(topo, enumerate.Options{
		Prefixes:        prefixes,
		MaxEnvironments: 1000,
		Timeout:         cfg.MSBudget,
	})
	fmt.Fprintf(w, "environments checked: %d of %.3g (reduced space; true space is astronomically larger)\n",
		rep.Environments, rep.SpaceSize)
	fmt.Fprintf(w, "elapsed: %v; projected exhaustive cost: %.3g years\n", rep.Elapsed.Round(time.Millisecond), rep.ProjectedYears())
	fmt.Fprintf(w, "violations so far: %d\n", rep.Violations)
	return nil
}

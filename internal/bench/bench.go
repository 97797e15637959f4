// Package bench regenerates every table and figure of the paper's
// evaluation (§7). Experiments is the table of them; each prints rows
// mirroring the published table or plot series, every row measured by the
// one budgeted runner, measure. cmd/expresso-bench derives its flags from
// the table; EXPERIMENTS.md records one run of all of it beside the paper's
// numbers.
package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"github.com/expresso-verify/expresso"
	"github.com/expresso-verify/expresso/internal/enumerate"
	"github.com/expresso-verify/expresso/internal/minesweeper"
	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/topology"
)

// Config tunes experiment cost.
type Config struct {
	Quick   bool          // shrink sweeps and datasets for a fast smoke run
	Budget  time.Duration // wall-clock budget of one row, whoever the verifier is (the paper's: one day)
	Workers int           // expresso.Options.Workers of every Expresso run (0 = GOMAXPROCS, 1 = sequential)
}

// Experiment is one table or figure of §7: the cmd/expresso-bench flag that
// selects it, the first line of its output, and the function printing its rows.
type Experiment struct {
	Flag, Title string
	Run         func(io.Writer, Config) error
}

// Experiments lists the evaluation in the order -all prints it. Figures
// 8a-8c (memory) are the heap columns of Figures 6a-6c.
var Experiments = []Experiment{
	{"table1", "Table 1: dataset statistics", table1},
	{"table2", "Table 2: property violations on the CSP snapshots", table2},
	{"fig6a", "Figure 6a / 8a: RouteLeakFree runtime and memory vs. number of neighbors", fig6a},
	{"fig6b", "Figure 6b / 8b: RouteLeakFree runtime and memory vs. network size", fig6b},
	{"fig6c", "Figure 6c / 8c: runtime and memory vs. protocol features (10 neighbors)", fig6c},
	{"fig7", "Figure 7: symbolic community and AS path encodings (runtime per dataset workload)", fig7},
	{"table3", "Table 3: per-stage runtime (seconds, 10 neighbors)", table3},
	{"table4", "Table 4: BlockToExternal on Internet2", table4},
	{"enum", "Enumeration baseline (Batfish/SRE-style): RouteLeakFree", enumeration},
}

// Run runs the selected experiments in order, each under its title and
// followed by a blank line.
func Run(w io.Writer, cfg Config, selected []Experiment) error {
	for _, e := range selected {
		fmt.Fprintln(w, e.Title)
		if err := e.Run(w, cfg); err != nil {
			return fmt.Errorf("-%s: %w", e.Flag, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// dataset names a netgen dataset cut to peers external neighbors (0 = all).
// sessions and rounds are the workload Figure 7 replays for a CSP snapshot:
// its external sessions and the EPVP rounds it takes to converge.
type dataset struct {
	name             string
	peers            int
	sessions, rounds int
}

func (d dataset) load() (*expresso.Network, error) {
	text, err := netgen.Dataset(d.name, d.peers)
	if err != nil {
		return nil, err
	}
	return expresso.Load(text)
}

// csp returns the CSP snapshots, in Table 1's order, whose name starts with
// prefix ("" = all), each cut to peers neighbors. Quick mode leaves out
// full-new, by far the largest.
func csp(cfg Config, prefix string, peers int) []dataset {
	var out []dataset
	for _, d := range []dataset{{"region1", peers, 10, 4}, {"region2", peers, 20, 4}, {"region3", peers, 20, 5},
		{"region4", peers, 40, 5}, {"full-old", peers, 90, 5}, {"full-new", peers, 220, 6}} {
		if strings.HasPrefix(d.name, prefix) && !(cfg.Quick && d.name == "full-new") {
			out = append(out, d)
		}
	}
	return out
}

// verifier is one contender of a comparison. run checks the network within
// cfg.Budget — ctx's deadline, for those that take a context — and fills in
// what it found, or that the budget stopped it.
type verifier struct {
	name string
	run  func(ctx context.Context, net *expresso.Network, cfg Config) (row, error)
}

// row is one (dataset, verifier) measurement: the verifier's findings, and
// measure's clock and heap reading.
type row struct {
	found    int
	timedOut bool
	report   *expresso.Report // Expresso and Expresso- only
	runtime  time.Duration
	heapMB   float64
}

func (r row) timeCell() string {
	if r.timedOut {
		return fmt.Sprintf(">%.0fs TIMEOUT", r.runtime.Seconds())
	}
	return fmt.Sprintf("%.3fs", r.runtime.Seconds())
}

// expressoVerifier is Expresso checking opts.Properties — or, by opts.Mode,
// Expresso- or one of Figure 6c's feature levels.
func expressoVerifier(name string, opts expresso.Options) verifier {
	return verifier{name, func(ctx context.Context, net *expresso.Network, cfg Config) (row, error) {
		opts.Workers = cfg.Workers
		rep, err := net.VerifyContext(ctx, opts)
		if errors.Is(err, context.DeadlineExceeded) {
			return row{timedOut: true}, nil
		} else if err != nil {
			return row{}, err
		}
		return row{found: len(rep.Violations), report: rep}, nil
	}}
}

// contenders are the three verifiers of Figures 6a/6b and Table 4, checking
// the routing property of opts. Minesweeper*'s timeout applies between its
// SAT queries and inside the solver; encoding one query of a large snapshot
// can overrun it, as the paper's Minesweeper* overran its day.
func contenders(opts expresso.Options, check func(*topology.Network, minesweeper.Options) (*minesweeper.Report, error)) []verifier {
	minus := opts
	minus.Mode = expresso.ExpressoMinusMode()
	return []verifier{
		{"Minesweeper*", func(_ context.Context, net *expresso.Network, cfg Config) (row, error) {
			rep, err := check(net.Topo, minesweeper.Options{Timeout: cfg.Budget})
			if err != nil {
				return row{}, err
			}
			return row{found: rep.Violations, timedOut: rep.TimedOut}, nil
		}},
		expressoVerifier("Expresso", opts),
		expressoVerifier("Expresso-", minus),
	}
}

var (
	// leakVerifiers check RouteLeakFree (Figures 6a and 6b).
	leakVerifiers = contenders(expresso.Options{Properties: []expresso.Kind{expresso.RouteLeakFree}}, minesweeper.CheckRouteLeak)
	// allProperties is Expresso with the §7.1 defaults (Tables 2 and 3).
	allProperties = []verifier{expressoVerifier("Expresso", expresso.Options{})}
)

// measure is the one budgeted runner: it loads d, collects the heap so the
// row's memory figure does not carry the rows before it, and runs v under a
// deadline cfg.Budget away. A verifier stops when it next looks at the
// clock, so a row's runtime says by how much it overran. heapMB is the
// process heap when v returns.
func measure(cfg Config, d dataset, v verifier) (row, error) {
	net, err := d.load()
	if err != nil {
		return row{}, fmt.Errorf("%s: %w", d.name, err)
	}
	runtime.GC()
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Budget)
	defer cancel()
	start := time.Now()
	r, err := v.run(ctx, net, cfg)
	r.runtime = time.Since(start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapMB = float64(ms.HeapAlloc) / 1e6
	return r, err
}

// each measures every verifier on every dataset and hands print the rows.
func each(cfg Config, datasets []dataset, verifiers []verifier, print func(dataset, verifier, row)) error {
	for _, d := range datasets {
		for _, v := range verifiers {
			r, err := measure(cfg, d, v)
			if err != nil {
				return err
			}
			print(d, v, r)
		}
	}
	return nil
}

// figure6 prints the columns Figures 6a-6c share, one row per dataset and
// verifier; first and second head the two label columns.
func figure6(w io.Writer, cfg Config, first, second string, label func(dataset) any, datasets []dataset, verifiers []verifier) error {
	fmt.Fprintf(w, "%-11s %-13s %16s %10s %6s\n", first, second, "runtime", "heap(MB)", "found")
	return each(cfg, datasets, verifiers, func(d dataset, v verifier, r row) {
		fmt.Fprintf(w, "%-11v %-13s %16s %10.1f %6d\n", label(d), v.name, r.timeCell(), r.heapMB, r.found)
	})
}

func byName(d dataset) any { return d.name }

func table1(w io.Writer, cfg Config) error {
	fmt.Fprintf(w, "%-11s %7s %7s %7s %9s %12s\n", "dataset", "nodes", "links", "peers", "prefixes", "config-lines")
	datasets := csp(cfg, "", 0)
	if !cfg.Quick {
		datasets = append(datasets, dataset{name: "internet2"})
	}
	for _, d := range datasets {
		net, err := d.load()
		if err != nil {
			return err
		}
		s := net.Topo.Statistics()
		fmt.Fprintf(w, "%-11s %7d %7d %7d %9d %12d\n", d.name, s.Nodes, s.Links, s.Peers, s.Prefixes, s.ConfigLines)
	}
	return nil
}

// table2 prints the violations found on the old and new CSP snapshots, all
// three properties. Quick mode cuts the old snapshot to 20 peers: the
// forwarding stage on the full snapshots is the most expensive row there is.
func table2(w io.Writer, cfg Config) error {
	fmt.Fprintf(w, "%-11s %10s %11s %13s %7s\n", "snapshot", "RouteLeak", "RouteHijack", "TrafficHijack", "total")
	peers := 0
	if cfg.Quick {
		peers = 20
		fmt.Fprintf(w, "(quick: cut to %d peers)\n", peers)
	}
	err := each(cfg, csp(cfg, "full-", peers), allProperties, func(d dataset, _ verifier, r row) {
		if r.timedOut {
			fmt.Fprintf(w, "%-11s %s\n", d.name, r.timeCell())
			return
		}
		c := r.report.CountByKind()
		fmt.Fprintf(w, "%-11s %10d %11d %13d %7d   (%s, %.0f MB heap)\n", d.name, c[expresso.RouteLeakFree],
			c[expresso.RouteHijackFree], c[expresso.TrafficHijackFree], r.found, r.timeCell(), r.heapMB)
	})
	fmt.Fprintf(w, "(paper: old 3/53/7 total 63; new 36/70/18 total 124)\n")
	return err
}

// fig6a prints runtime (and Figure 8a's memory) versus the number of
// external neighbors, on subsets of the old snapshot.
func fig6a(w io.Writer, cfg Config) error {
	datasets := []dataset{{name: "full-old", peers: 10}, {name: "full-old", peers: 30}, {name: "full-old", peers: 50},
		{name: "full-old", peers: 70}, {name: "full-old", peers: 90}}
	if cfg.Quick {
		datasets = datasets[:2]
	}
	return figure6(w, cfg, "nbrs", "verifier", func(d dataset) any { return d.peers }, datasets, leakVerifiers)
}

func fig6b(w io.Writer, cfg Config) error {
	return figure6(w, cfg, "dataset", "verifier", byName, csp(cfg, "", 0), leakVerifiers)
}

// fig6c prints Expresso's runtime (and Figure 8c's memory) under the four
// protocol-feature levels, checking RouteLeakFree and TrafficHijackFree
// with 10 external neighbors, as in §7.2.
func fig6c(w io.Writer, cfg Config) error {
	var levels []verifier
	for _, m := range []struct {
		name string
		mode expresso.Mode
	}{
		{"none", expresso.Mode{}}, {"t", expresso.Mode{TrafficPolicies: true}},
		{"t+c", expresso.Mode{TrafficPolicies: true, SymbolicCommunities: true}}, {"t+c+a", expresso.FullMode()},
	} {
		levels = append(levels, expressoVerifier(m.name, expresso.Options{Mode: m.mode,
			Properties: []expresso.Kind{expresso.RouteLeakFree, expresso.TrafficHijackFree}}))
	}
	return figure6(w, cfg, "dataset", "mode", byName, csp(cfg, "full-", 10), levels)
}

// table3 prints per-stage runtimes (SRC, routing analysis, SPF, forwarding
// analysis) with 10 external neighbors.
func table3(w io.Writer, cfg Config) error {
	fmt.Fprintf(w, "%-11s %8s %12s %8s %12s\n", "dataset", "SRC", "RoutingProp", "SPF", "FwdProp")
	return each(cfg, csp(cfg, "", 10), allProperties, func(d dataset, _ verifier, r row) {
		if r.timedOut {
			fmt.Fprintf(w, "%-11s %s\n", d.name, r.timeCell())
			return
		}
		t := r.report.Timing
		fmt.Fprintf(w, "%-11s %8.3f %12.3f %8.3f %12.3f\n", d.name,
			t.SRC.Seconds(), t.RoutingAnalysis.Seconds(), t.SPF.Seconds(), t.ForwardingAnalysis.Seconds())
	})
}

// table4 prints the Internet2 BlockToExternal comparison. The Bagpipe row
// is the paper's, which itself quoted Bagpipe's published results.
func table4(w io.Writer, cfg Config) error {
	fmt.Fprintf(w, "%-14s %16s %10s %10s\n", "verifier", "runtime", "mem(GB)", "violations")
	fmt.Fprintf(w, "%-14s %16s %10s %10d   (reported in the Bagpipe paper)\n", "Bagpipe", "28594s (8h)", "-", 5)
	d := dataset{name: "internet2"}
	if cfg.Quick {
		d.peers = 30
		fmt.Fprintf(w, "(quick: cut to %d peers)\n", d.peers)
	}
	opts := expresso.Options{Properties: []expresso.Kind{expresso.BlockToExternal}, BTE: netgen.BTECommunity}
	err := each(cfg, []dataset{d}, contenders(opts, func(t *topology.Network, o minesweeper.Options) (*minesweeper.Report, error) {
		return minesweeper.CheckBlockToExternal(t, netgen.BTECommunity, o)
	}), func(_ dataset, v verifier, r row) {
		fmt.Fprintf(w, "%-14s %16s %10.2f %10d\n", v.name, r.timeCell(), r.heapMB/1e3, r.found)
	})
	fmt.Fprintf(w, "(paper: Bagpipe 28594s/5, Minesweeper* 2282s/45GB/0, Expresso 655s/12GB/4, Expresso- 338s/12GB/4)\n")
	return err
}

// enumeration prints the Batfish-style enumeration baseline's projected
// cost on the old snapshot (§7: 1000 environments already took 2 hours).
func enumeration(w io.Writer, cfg Config) error {
	const environments = 1000
	d := dataset{name: "full-old"}
	if cfg.Quick {
		d.name = "region1"
	}
	var rep *enumerate.Report
	r, err := measure(cfg, d, verifier{"enumeration", func(_ context.Context, net *expresso.Network, cfg Config) (row, error) {
		prefixes := net.Topo.InternalPrefixes()
		rep = enumerate.CheckRouteLeak(net.Topo, enumerate.Options{
			Prefixes: prefixes[:min(8, len(prefixes))], MaxEnvironments: environments, Timeout: cfg.Budget})
		return row{found: rep.Violations, timedOut: rep.Environments < environments}, nil
	}})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: environments checked: %d of %.3g (reduced space; true space is astronomically larger)\n",
		d.name, rep.Environments, rep.SpaceSize)
	fmt.Fprintf(w, "elapsed: %s; projected exhaustive cost: %.3g years\n", r.timeCell(), rep.ProjectedYears())
	fmt.Fprintf(w, "violations so far: %d\n", r.found)
	return nil
}

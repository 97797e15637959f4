// Command expresso-bench regenerates the tables and figures of the paper's
// evaluation (§7). Each experiment of bench.Experiments has a flag; -all
// runs them all. Every row runs under -budget and prints TIMEOUT past it.
//
// Usage:
//
//	expresso-bench -table1
//	expresso-bench -fig6a -budget 30s
//	expresso-bench -all -quick
//
// Figures 8a-8c (memory) are the heap columns of the Figure 6a-6c outputs.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/expresso-verify/expresso/internal/bench"
)

func main() {
	on := map[string]*bool{}
	for _, e := range bench.Experiments {
		on[e.Flag] = flag.Bool(e.Flag, false, e.Title)
	}
	all := flag.Bool("all", false, "run every experiment")
	quick := flag.Bool("quick", false, "reduced scales for a fast smoke run")
	budget := flag.Duration("budget", 60*time.Second, "wall-clock budget of one row, whoever the verifier is")
	workers := flag.Int("workers", 0, "engine worker goroutines per run (0 = GOMAXPROCS, 1 = sequential)")
	flag.Parse()

	var selected []bench.Experiment
	for _, e := range bench.Experiments {
		if *all || *on[e.Flag] {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 || *budget <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := bench.Config{Quick: *quick, Budget: *budget, Workers: *workers}
	if err := bench.Run(os.Stdout, cfg, selected); err != nil {
		fmt.Fprintf(os.Stderr, "expresso-bench: %v\n", err)
		os.Exit(1)
	}
}

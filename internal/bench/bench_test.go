package bench

import (
	"context"
	"errors"
	"io"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/expresso-verify/expresso"
)

// run runs the experiment flag selects in quick mode and returns its output.
func run(t *testing.T, flag string, budget time.Duration) string {
	t.Helper()
	for _, e := range Experiments {
		if e.Flag == flag {
			var sb strings.Builder
			if err := Run(&sb, Config{Quick: true, Budget: budget}, []Experiment{e}); err != nil {
				t.Fatal(err)
			}
			return sb.String()
		}
	}
	t.Fatalf("no experiment -%s", flag)
	return ""
}

func TestTable1(t *testing.T) {
	out := run(t, "table1", time.Second)
	for _, want := range []string{"region1", "region4", "full-old", "config-lines"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig7(t *testing.T) {
	out := run(t, "fig7", time.Second)
	if !strings.Contains(out, "TIMEOUT") {
		t.Errorf("Figure 7b should show the path-set encoding timing out:\n%s", out)
	}
	if !strings.Contains(out, "automaton") || !strings.Contains(out, "atomic-predicate") {
		t.Error("Figure 7 output missing encoding columns")
	}
}

func TestEnumerationQuick(t *testing.T) {
	out := run(t, "enum", 5*time.Second)
	if !strings.Contains(out, "environments checked: 1000 of") || strings.Contains(out, "TIMEOUT") {
		t.Errorf("the quick enumeration should finish its 1000 environments:\n%s", out)
	}
}

// TestTable3QuickSubset: within budget, Table 3's rows are the four stage
// times of a finished run.
func TestTable3QuickSubset(t *testing.T) {
	out := run(t, "table3", time.Minute)
	if !regexp.MustCompile(`(?m)^region1( +\d+\.\d{3}){4}$`).MatchString(out) || strings.Contains(out, "TIMEOUT") {
		t.Errorf("Table 3 output malformed:\n%s", out)
	}
}

// TestEveryExperimentTerminatesUnderBudget: at a budget nothing but the
// smallest rows fits in, every experiment still returns, and every row of a
// comparison — Expresso's, which used to run unbounded, and Minesweeper*'s —
// reads either TIMEOUT or a finished runtime.
func TestEveryExperimentTerminatesUnderBudget(t *testing.T) {
	row := regexp.MustCompile(`(Minesweeper\*|Expresso-?)\s+(>\d+s TIMEOUT|\d+\.\d{3}s)\s`)
	timeouts := 0
	for _, e := range Experiments {
		out := run(t, e.Flag, 50*time.Millisecond)
		timeouts += strings.Count(out, "TIMEOUT")
		for _, line := range strings.Split(out, "\n") {
			if (strings.Contains(line, "Expresso") || strings.Contains(line, "Minesweeper*")) &&
				!strings.HasPrefix(line, "(paper") && !row.MatchString(line) {
				t.Errorf("-%s: row is neither timed out nor finished: %q", e.Flag, line)
			}
		}
	}
	if timeouts == 0 {
		t.Error("no row of any experiment exceeded a 50 ms budget")
	}
}

// TestExpressoRowTimesOut: the budget reaches Expresso through
// VerifyContext, and an over-budget row is a TIMEOUT row, not an error.
func TestExpressoRowTimesOut(t *testing.T) {
	r, err := measure(Config{Budget: time.Millisecond}, dataset{name: "region4"}, allProperties[0])
	if err != nil {
		t.Fatal(err)
	}
	if !r.timedOut || r.report != nil || !strings.HasSuffix(r.timeCell(), "TIMEOUT") {
		t.Errorf("region4, all properties, 1 ms: %+v (%s)", r, r.timeCell())
	}
	if r.runtime > 5*time.Second {
		t.Errorf("cancellation took %v", r.runtime)
	}
	for _, v := range leakVerifiers[1:] {
		r, err = measure(Config{Budget: time.Minute}, dataset{name: "region1"}, v)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(v.name, "Expresso") || r.timedOut || r.report == nil || r.runtime <= 0 || r.heapMB <= 0 {
			t.Errorf("region1, %s, 1 min: %+v", v.name, r)
		}
	}
}

func TestAllRunsEachExperimentOnce(t *testing.T) {
	flags := ""
	ran := map[string]int{}
	var counted []Experiment
	for _, e := range Experiments {
		flags += " -" + e.Flag
		counted = append(counted, Experiment{e.Flag, e.Title, func(io.Writer, Config) error {
			ran[e.Flag]++
			return nil
		}})
	}
	if want := " -table1 -table2 -fig6a -fig6b -fig6c -fig7 -table3 -table4 -enum"; flags != want {
		t.Errorf("experiment flags =%s, want%s", flags, want)
	}
	var sb strings.Builder
	if err := Run(&sb, Config{}, counted); err != nil {
		t.Fatal(err)
	}
	for _, e := range Experiments {
		if ran[e.Flag] != 1 || strings.Count(sb.String(), e.Title+"\n") != 1 {
			t.Errorf("-%s ran %d times; output:\n%s", e.Flag, ran[e.Flag], sb.String())
		}
	}

	boom := errors.New("boom")
	counted[1].Run = func(io.Writer, Config) error { return boom }
	if err := Run(io.Discard, Config{}, counted); !errors.Is(err, boom) || !strings.Contains(err.Error(), "-table2") {
		t.Errorf("a failing experiment's error = %v, want boom naming -table2", err)
	}
	if ran["table1"] != 2 || ran["fig6a"] != 1 {
		t.Errorf("Run should stop at the first failure: %v", ran)
	}
}

// garbage is package-level so the compiler cannot drop the allocations.
var garbage [][]byte

// TestRowStartsFromCollectedHeap: a row's memory figure must not carry the
// garbage of the rows before it.
func TestRowStartsFromCollectedHeap(t *testing.T) {
	idle := verifier{"idle", func(context.Context, *expresso.Network, Config) (row, error) {
		return row{}, nil
	}}
	cfg := Config{Budget: time.Second}
	d := dataset{name: "region1"}
	clean, err := measure(cfg, d, idle)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		garbage = append(garbage, make([]byte, 4<<20))
	}
	garbage = nil
	after, err := measure(cfg, d, idle)
	if err != nil {
		t.Fatal(err)
	}
	if after.heapMB > clean.heapMB+64 {
		t.Errorf("idle row after 256 MB of garbage reads %.0f MB, the same row before it %.0f MB", after.heapMB, clean.heapMB)
	}
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// harness re-executes os.Executable() as `-child ...` for every cold
// operation and as `-workload ...` for every run, and under `go test`
// that executable is this one.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "-child":
			os.Exit(childMain(os.Args[2:]))
		case "-workload":
			os.Exit(run(os.Args[1:]))
		}
	}
	os.Exit(m.Run())
}

type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesSpec pins BENCHMARK.json to the tables the harness
// emits from: regenerate it with `go run ./benchmark -spec` after editing
// spec.go.
func TestContractMatchesSpec(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("BENCHMARK.json is stale: run `go run ./benchmark -spec > BENCHMARK.json`")
	}
	c := readContract(t)
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", c.Paths)
	}
	for _, m := range c.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestSmoke runs all four workload code paths, timed and traced, with the
// layer walk, on the tiny testnet fixture, and checks that exactly the
// workload and metric names of BENCHMARK.json come out, each with its
// unit, and that the result file survives a round trip and compares equal
// to itself.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	dir := t.TempDir()
	for _, trace := range []int{0, 1} {
		out := filepath.Join(dir, "results.json")
		o := options{seed: 1, seconds: 0.2, trace: trace, fixture: "testnet", dir: dir, runs: 1, out: out}
		if code := runAll(o); code != 0 {
			t.Fatalf("trace=%d: runAll exited %d", trace, code)
		}
		file, err := readResultFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if file.Claim != nil {
			t.Errorf("claim = %q, want null", *file.Claim)
		}
		if file.Env.NProc == 0 || file.Env.GoVersion == "" || file.Env.EngineWorkers == 0 {
			t.Errorf("environment block incomplete: %+v", file.Env)
		}
		want := map[string]string{}
		if trace == 0 {
			for _, m := range c.EndToEnd {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range c.PerLayer {
				want[m.Name] = m.Unit
			}
		}
		if len(file.Workloads) != len(c.Workloads) {
			t.Fatalf("trace=%d: %d workloads, contract has %d", trace, len(file.Workloads), len(c.Workloads))
		}
		for i, w := range file.Workloads {
			if w.Name != c.Workloads[i].Name {
				t.Errorf("workload %d is %q, contract says %q", i, w.Name, c.Workloads[i].Name)
			}
			run := w.Runs[0]
			if !run.Correct || run.Failed != 0 || run.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d", w.Name, trace, run.Correct, run.Failed, run.Attempted)
			}
			got := map[string]string{}
			for name, m := range run.Metrics {
				got[name] = m.Unit
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, m.Value)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%d: metric names/units differ from BENCHMARK.json:\n got %v\nwant %v", w.Name, trace, got, want)
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
			}
		}

		again := filepath.Join(dir, "again.json")
		if err := file.write(again); err != nil {
			t.Fatal(err)
		}
		a, _ := os.ReadFile(out)
		b, _ := os.ReadFile(again)
		if string(a) != string(b) {
			t.Errorf("trace=%d: result file does not round-trip", trace)
		}
		var table strings.Builder
		if code := compareFiles(&table, out, again); code != 0 {
			t.Errorf("trace=%d: a result file does not compare equal to itself:\n%s", trace, table.String())
		}
	}
}

// TestCompareVerdicts pins the comparison rule: relative bound plus
// absolute floor, unresolved when the sets' own spread exceeds the bound.
func TestCompareVerdicts(t *testing.T) {
	m := metricDef{Name: "verdict_p50_ms", Better: "lower", Bound: 0.10, Floor: 1}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name     string
		old, new []float64
		want     string
	}{
		{"unchanged", steady, []float64{101, 100, 100, 99, 102}, verdictOK},
		{"regressed", steady, []float64{120, 121, 119, 120, 122}, verdictRegressed},
		{"under the floor", []float64{2, 2, 2}, []float64{2.9, 2.9, 2.9}, verdictOK},
		{"every run better", steady, []float64{80, 81, 79, 80, 82}, verdictBetter},
		{"too noisy to tell", []float64{80, 100, 120, 90, 110}, []float64{85, 104, 118, 95, 108}, verdictUnresolved},
	} {
		if got := judge(m, tc.old, tc.new); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	exact := metricDef{Name: "store.bytes", Better: "lower", Exact: true}
	if got := judge(exact, []float64{10}, []float64{11}); got != verdictChanged {
		t.Errorf("exact metric that moved: verdict %q, want %q", got, verdictChanged)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 20})
	if q1 != 7.5 || q3 != 22.5 {
		t.Errorf("quartiles(10, 20) = %v, %v; Python gives 7.5, 22.5", q1, q3)
	}
}

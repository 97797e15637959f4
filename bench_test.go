package expresso_test

// Benchmarks regenerating the paper's evaluation, one per table and figure.
// Each delegates to internal/bench in quick mode so `go test -bench=.`
// exercises every experiment in bounded time; the full-scale runs are
// driven by cmd/expresso-bench (see EXPERIMENTS.md for recorded results).
//
//	BenchmarkTable1DatasetStats      — Table 1
//	BenchmarkTable2Violations        — Table 2
//	BenchmarkFig6aRuntimeVsNeighbors — Figures 6a and 8a
//	BenchmarkFig6bRuntimeVsSize      — Figures 6b and 8b
//	BenchmarkFig6cFeatures           — Figures 6c and 8c
//	BenchmarkFig7Encodings           — Figures 7a and 7b
//	BenchmarkTable3Stages            — Table 3
//	BenchmarkTable4Internet2         — Table 4
//	BenchmarkEnumerationBaseline     — the §7 Batfish-enumeration remark
//
// Figure 5's case studies are exercised by the runnable examples and the
// integration tests (testnet fixtures).

import (
	"io"
	"testing"
	"time"

	"github.com/expresso-verify/expresso/internal/bench"
)

func quickCfg() bench.Config {
	return bench.Config{Quick: true, MSBudget: 5 * time.Second}
}

func BenchmarkTable1DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Table1(io.Discard, quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Violations(b *testing.B) {
	// Quick mode still verifies the full old snapshot; run once per op.
	for i := 0; i < b.N; i++ {
		if err := bench.Table2(io.Discard, quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6aRuntimeVsNeighbors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig6a(io.Discard, quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6bRuntimeVsSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig6b(io.Discard, quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6cFeatures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig6c(io.Discard, quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Encodings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig7(io.Discard, quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Stages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Table3(io.Discard, quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4Internet2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Table4(io.Discard, quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnumerationBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Enumeration(io.Discard, quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

package spf

import (
	"context"
	"testing"

	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/telemetry"
	"github.com/expresso-verify/expresso/internal/testnet"
)

func TestFinalStateStrings(t *testing.T) {
	cases := map[FinalState]string{
		Arrive:    "ARRIVE",
		Exit:      "EXIT",
		BlackHole: "BLACKHOLE",
		Loop:      "LOOP",
	}
	for fs, want := range cases {
		if fs.String() != want {
			t.Errorf("%d.String() = %q, want %q", fs, fs.String(), want)
		}
	}
}

func TestPECsFromFiltering(t *testing.T) {
	eng, _, dp := runPipeline(t, testnet.Figure4)
	all := dp.PECsFrom("PR1", "")
	if len(all) == 0 {
		t.Fatal("no PECs from PR1")
	}
	toISP1 := dp.PECsFrom("PR1", "ISP1")
	for _, p := range toISP1 {
		if p.Path[len(p.Path)-1] != "ISP1" {
			t.Errorf("PECsFrom(PR1, ISP1) returned %v", p.Path)
		}
	}
	if len(toISP1) >= len(all) {
		t.Error("destination filter should narrow the set")
	}
	_ = eng
}

func TestAvailPredicate(t *testing.T) {
	eng, _, dp := runPipeline(t, testnet.Figure4)
	d := route.MustParsePrefix("128.0.0.0/2")
	// ISP1's availability for the /2: its import-permitted advertisement
	// at length 2.
	avail := dp.AvailPredicate("ISP1", d)
	if avail == bdd.False {
		t.Fatal("ISP1 can cover 128.0.0.0/2")
	}
	// It must depend only on ISP1's data-plane variables.
	for _, v := range eng.Space.M.Support(avail) {
		if v < 32 {
			t.Errorf("availability mentions destination bit %d", v)
		}
	}
	// A destination outside the import-permitted space is unavailable.
	if got := dp.AvailPredicate("ISP1", route.MustParsePrefix("16.0.0.0/4")); got != bdd.False {
		t.Error("16.0.0.0/4 is not permitted by im1; availability should be empty")
	}
}

func TestFIBEntriesCounted(t *testing.T) {
	_, _, dp := runPipeline(t, testnet.Figure4)
	for name, fib := range dp.FIBs {
		if fib.Entries == 0 {
			t.Errorf("router %s has an empty FIB", name)
		}
	}
}

func TestExternalInjectionSharesInternalTree(t *testing.T) {
	// The PECs injected from an external neighbor must mirror the internal
	// first hop's PECs exactly (same predicates and suffix paths).
	eng, _, dp := runPipeline(t, testnet.Figure4)
	internal := map[string]*PEC{}
	for _, pec := range dp.PECsFrom("PR1", "") {
		internal[pathKey(pec.Path)+pec.Final.String()] = pec
	}
	for _, pec := range dp.PECsFrom("ISP1", "") {
		if pec.Path[1] != "PR1" {
			t.Fatalf("ISP1 traffic must enter at PR1: %v", pec.Path)
		}
		suffix := pathKey(pec.Path[1:]) + pec.Final.String()
		in, ok := internal[suffix]
		if !ok {
			t.Fatalf("no internal counterpart for %v", pec.Path)
		}
		if in.Pkt != pec.Pkt {
			t.Error("external-injected PEC predicate diverges from the internal tree")
		}
	}
	_ = eng
}

// TestResultKeepsNoRequestState: the pipeline caches an SPF result on its
// SRC artifact for later requests, so RunTraced must not hand back the
// finished run's context, tracer or variable tally with it.
func TestResultKeepsNoRequestState(t *testing.T) {
	eng, cp := converge(t, testnet.Figure4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, err := RunTraced(ctx, eng, cp, telemetry.NewTracer())
	if err != nil {
		t.Fatal(err)
	}
	if r.ctx != nil || r.trace != nil || r.varsUsed != nil {
		t.Errorf("result keeps request state: ctx=%v trace=%v varsUsed=%v",
			r.ctx != nil, r.trace != nil, r.varsUsed)
	}
	if len(r.DataVarsPerNeighbor) == 0 {
		t.Error("the run's variable tally never reached DataVarsPerNeighbor")
	}
}

// TestRunsReuseManagerForks: a manager keeps one set of workers for every
// fan-out over it. After a two-worker EPVP run, SPF fans out on the same
// M.Workers(2), so a later run over the manager (a delta against a pinned
// baseline) finds the op caches earlier ones filled; a second run creates
// no worker, and both runs give the same PECs.
func TestRunsReuseManagerForks(t *testing.T) {
	eng, cp := convergeAt(t, testnet.Figure4, 2)
	ws := eng.Space.M.Workers(2)
	lookups := func(w *bdd.Worker) int64 {
		hits, misses := w.MemoStats()
		return hits + misses
	}
	before := lookups(ws[1])
	var runs []*Result
	for run := 0; run < 2; run++ {
		runs = append(runs, Run(eng, cp))
		if got := eng.Space.M.Workers(2); got[0] != ws[0] || got[1] != ws[1] {
			t.Fatalf("run %d replaced the manager's kept workers", run)
		}
		// Profile counts every kept worker's op caches: if they hold no
		// more than these two do, the run kept no other worker.
		var used int64
		for _, w := range ws {
			used += int64(w.CacheSize())
		}
		if p := eng.Space.M.Profile(); p.OpCacheUsed != used {
			t.Errorf("run %d: the manager's kept workers hold %d op-cache entries, its first two %d", run, p.OpCacheUsed, used)
		}
	}
	if lookups(ws[1]) == before {
		t.Error("SPF never used the manager's kept worker 1: it fanned out on other workers")
	}
	first, second := runs[0], runs[1]
	if len(first.PECs) != len(second.PECs) {
		t.Fatalf("%d PECs, then %d", len(first.PECs), len(second.PECs))
	}
	for i := range first.PECs {
		if first.PECs[i].Pkt != second.PECs[i].Pkt {
			t.Errorf("PEC %d differs between the runs", i)
		}
	}
}

package spf

import (
	"context"
	"testing"

	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/route"
	"github.com/expresso-verify/expresso/internal/symbolic"
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

// TestRunsReuseManagerForks: at two workers SPF fans out on the forks its
// manager keeps, so a later run over the manager (a delta against a pinned
// baseline) finds the op caches an earlier one filled. A run that finds
// them held gets fresh forks and leaves the held ones alone.
func TestRunsReuseManagerForks(t *testing.T) {
	eng, cp := converge(t, testnet.Figure4)
	eng.Workers = 2
	first := Run(eng, cp)
	work := func(forks []*symbolic.Space) (n int64) {
		for _, f := range forks {
			hits, misses := f.W.MemoStats()
			n += hits + misses
		}
		return n
	}
	held, release := eng.Space.SPFForks(2)
	before := work(held)
	if before == 0 {
		t.Fatal("the manager's kept forks did no work: SPF forked fresh ones")
	}
	second := Run(eng, cp)
	if after := work(held); after != before {
		t.Errorf("a run used forks another holder had taken (%d → %d operations)", before, after)
	}
	release()
	again, release := eng.Space.SPFForks(2)
	defer release()
	for i := range again {
		if again[i] != held[i] {
			t.Errorf("fork %d was not kept across release", i)
		}
	}
	if len(first.PECs) != len(second.PECs) {
		t.Fatalf("%d PECs, then %d", len(first.PECs), len(second.PECs))
	}
	for i := range first.PECs {
		if first.PECs[i].Pkt != second.PECs[i].Pkt {
			t.Errorf("PEC %d differs between the runs", i)
		}
	}
}

package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/epvp"
	"github.com/expresso-verify/expresso/internal/netgen"
	"github.com/expresso-verify/expresso/internal/properties"
	"github.com/expresso-verify/expresso/internal/store"
	"github.com/expresso-verify/expresso/internal/testnet"
)

// --- StageCache (ported from the service's whole-report cache tests) ----

type fakeReport struct{ n int }

func newStageCache(reportCap int) *StageCache[*fakeReport] {
	c := &StageCache[*fakeReport]{}
	c.SetReportCap(reportCap)
	return c
}

func TestStageCacheLRUEviction(t *testing.T) {
	c := &newStageCache(2).Report
	a, b, d := &fakeReport{1}, &fakeReport{2}, &fakeReport{3}
	c.Add("a", a)
	if _, dropped := c.Add("b", b); dropped {
		t.Error("Add below capacity dropped a value")
	}
	if _, ok := c.Get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	if got, dropped := c.Add("d", d); !dropped || got != b { // evicts b
		t.Errorf("Add past capacity dropped %v, want b", got)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if got, ok := c.Get("a"); !ok || got != a {
		t.Error("a should have survived eviction")
	}
	if got, ok := c.Get("d"); !ok || got != d {
		t.Error("d should be cached")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	// d was used after a, so a is now the least recently used.
	if got, dropped := c.Add("e", &fakeReport{4}); !dropped || got != a {
		t.Errorf("Add past capacity dropped %v, want a (least recently used)", got)
	}
}

func TestStageCacheRefreshExisting(t *testing.T) {
	c := &newStageCache(0).Report
	r1, r2 := &fakeReport{1}, &fakeReport{2}
	c.Add("k", r1)
	if got, dropped := c.Add("k", r2); !dropped || got != r1 {
		t.Errorf("Add over a held key dropped %v, want the value it replaced", got)
	}
	if got, _ := c.Get("k"); got != r2 {
		t.Error("Add should refresh the stored artifact")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestStageCacheDisabled(t *testing.T) {
	c := newStageCache(-1)
	r := &fakeReport{}
	if got, dropped := c.Report.Add("k", r); !dropped || got != r {
		t.Errorf("a disabled tier dropped %v, want the value it was handed", got)
	}
	if _, ok := c.Report.Get("k"); ok {
		t.Error("disabled stage must not store")
	}
	if c.Report.Len() != 0 {
		t.Errorf("a disabled tier holds %d reports", c.Report.Len())
	}
}

// TestStageCacheStatsCount: every stage's counters come from the one
// Counters a Runner tallies into, the report tier's from the tier; the src
// entries are the held artifacts, and the derived entries are what those
// hold.
func TestStageCacheStatsCount(t *testing.T) {
	c := newStageCache(0)
	c.Report.Get("missing")
	c.Report.Add("k", &fakeReport{})
	c.Report.Get("k")
	c.Report.Probe("missing") // a probe counts only what it finds
	c.Counters.warms.Add(1)
	c.Counters.src.count(true)
	c.Counters.spf.count(false)
	held := &SRCArtifact{}
	held.derived.cap = derivedCap
	held.derived.Add(SPFKey("d"), &SPFArtifact{})
	want := []StageStat{
		{Stage: StageSRC, Hits: 1, Entries: 1, WarmStarts: 1},
		{Stage: StageRouting},
		{Stage: StageSPF, Misses: 1, Entries: 1},
		{Stage: StageForwarding},
		{Stage: StageReport, Hits: 1, Misses: 1, Entries: 1},
	}
	if got := c.Stats(held); !reflect.DeepEqual(got, want) {
		t.Errorf("Stats = %+v\nwant    %+v", got, want)
	}
}

// --- digests -----------------------------------------------------------

func TestCanonicalConfigStripsNoise(t *testing.T) {
	a := "router R1\nbgp as 100\n"
	b := "// header comment\n\nrouter   R1   # trailing comment\r\nbgp  as  100\n\n"
	if CanonicalConfig(a) != CanonicalConfig(b) {
		t.Errorf("canonical forms differ:\n%q\n%q", CanonicalConfig(a), CanonicalConfig(b))
	}
	if CanonicalConfig("router R1\n") == CanonicalConfig("router R2\n") {
		t.Error("distinct configs canonicalized to the same text")
	}
}

func TestDeviceDigests(t *testing.T) {
	canon := CanonicalConfig("// preamble-free\nrouter A\nbgp as 1\nrouter B\nbgp as 2\n")
	d := DeviceDigests(canon)
	if len(d) != 2 || d["A"] == "" || d["B"] == "" {
		t.Fatalf("DeviceDigests = %v, want sections A and B", d)
	}
	// Changing one router's section changes only that router's digest.
	canon2 := CanonicalConfig("router A\nbgp as 1\nrouter B\nbgp as 99\n")
	d2 := DeviceDigests(canon2)
	if d2["A"] != d["A"] {
		t.Error("unchanged router A's digest moved")
	}
	if d2["B"] == d["B"] {
		t.Error("changed router B's digest did not move")
	}
	// Comments and whitespace are canonicalized away before sectioning.
	d3 := DeviceDigests(CanonicalConfig("router   A   // x\nbgp  as  1\nrouter B\nbgp as 2\n"))
	if d3["A"] != d["A"] || d3["B"] != d["B"] {
		t.Error("formatting noise changed a section digest")
	}
}

// TestLoadElapsedCountsTheCanonicalPass: the Load stage's time (a report's
// timing.load_ns) includes the Source's canonical pass, which a run makes
// before the stage starts its own clock.
func TestLoadElapsedCountsTheCanonicalPass(t *testing.T) {
	src := NewSource(testnet.Figure4)
	src.Elapsed = time.Hour
	load, err := LoadSource(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if load.Elapsed < time.Hour {
		t.Errorf("Load Elapsed = %v, does not count the canonical pass", load.Elapsed)
	}
}

// TestDigestsKeepTheirBytes pins the canonical form by its digests, taken
// at the commit before canonicalization moved into internal/config: stage
// keys and on-disk store keys chain on them, so a drift here orphans every
// existing store. The text has a comment-only preamble, both comment
// styles, a repeated router section, ragged whitespace and a CR.
func TestDigestsKeepTheirBytes(t *testing.T) {
	text := "# preamble\n\n" + testnet.Figure4 + "router PR1 // again\n bgp  router-id 1.1.1.1\r\n"
	if got, want := ConfigDigest(text), "ad63ef5d76e171c9837961cf881fce0cf38fd345f17ef9049eed4e31bedd5a47"; got != want {
		t.Errorf("ConfigDigest = %s, want %s", got, want)
	}
	want := map[string]string{
		"PR1": "99f9a6956e9bf1e64d80cbd4f7a4f74e6cb0201fb68ec671272c38b5c1f12661",
		"PR2": "e1b0c7b8ba476d817b040a214809e7a0a0efa5461be730438a7d2a78bb73bdd9",
	}
	if got := DeviceDigests(CanonicalConfig(text)); !reflect.DeepEqual(got, want) {
		t.Errorf("DeviceDigests = %v, want %v", got, want)
	}
	if got, want := DiskKey(SRCKey(ConfigDigest(text), epvp.FullMode())), "bd1072b830f2f9955cd6e9a5640499dd325cba34e26ce8586fc349bd10c87ca7"; got != want {
		t.Errorf("SRC store key = %s, want %s", got, want)
	}
	// Every generated dataset's digest, as the line-by-line canonical form
	// the one-pass scan replaced gave it.
	for name, want := range map[string]string{
		"region1":   "23b747240e0bc0a6900287b97f34ff2453e0fa98e85b28cb1c82423a5538d819",
		"region2":   "013be34b32a0f0962ac6ed950121959b02074afdd394b7dcafab0c6cd4111695",
		"region3":   "1687822a9816ea4b821d228515b658e24ef44e9bc477c84a27b3565fd7239437",
		"region4":   "f7d1fb49ab04cc2c8fa80cb571ee41bd479fe7b717b1e9d7e81777eb91e72c29",
		"full-old":  "ed42994f6963f0f3a471067531bc3bc1e315107cbd5f603a3eb943cf196a115e",
		"full-new":  "f49b320745c904cdd0fbd3d4ea1e1670f9d84df462866f6a132d1966bcdeb7be",
		"internet2": "c3bbd9834ac560981494be14a66c6295b8790c82215570e43c936ff89d942640",
	} {
		text, err := netgen.Dataset(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := ConfigDigest(text); got != want {
			t.Errorf("%s: ConfigDigest = %s, want %s", name, got, want)
		}
	}
}

// TestHashHexDoesNotCopyTheText: a whole-text digest streams the text
// through a fixed buffer, so hashing region 1's ~190 KB allocates nothing
// near a copy of it — and gives the digest sha256.Sum256 does.
func TestHashHexDoesNotCopyTheText(t *testing.T) {
	text, err := netgen.Dataset("region1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256([]byte(text)); hashHex(text) != hex.EncodeToString(sum[:]) {
		t.Fatal("hashHex differs from sha256.Sum256")
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hashHex(text)
		}
	})
	if n := res.AllocedBytesPerOp(); n >= 1<<10 {
		t.Errorf("one hashHex of a %d-byte text allocates %d bytes, want under 1 KiB", len(text), n)
	}
}

// TestLoadHasNoPreambleKey: a LoadArtifact's DeviceDigests has one key per
// router and never the "" key of text before the first router, which is
// what lets DirtyRouters and UnchangedRouters read every key as a router:
// the canonical form drops comment and blank lines, and the parser rejects
// any statement before the first router line.
func TestLoadHasNoPreambleKey(t *testing.T) {
	body := "router r1\nbgp as 1\nrouter r2\nbgp as 2\n"
	for _, text := range []string{body, "# comment\n\n" + body, "// comment\n \t\n\n" + body} {
		a, err := Load(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		if _, ok := a.DeviceDigests[""]; ok || len(a.DeviceDigests) != 2 {
			t.Errorf("%q: DeviceDigests %v, want r1 and r2 alone", text, a.DeviceDigests)
		}
	}
	for _, text := range []string{"bgp as 1\n" + body, "# comment\n  bgp as 1 # again\n" + body, "router\n" + body} {
		if a, err := Load(text); err == nil {
			t.Errorf("%q: a statement before the first router loaded, DeviceDigests %v", text, a.DeviceDigests)
		}
	}
}

func TestStageKeysChain(t *testing.T) {
	full := epvp.FullMode()
	k1 := SRCKey("cfg1", full)
	if k1 == SRCKey("cfg2", full) {
		t.Error("SRC key ignores the config digest")
	}
	minus := full
	minus.SymbolicASPaths = false
	if k1 == SRCKey("cfg1", minus) {
		t.Error("SRC key ignores the mode")
	}
	leak := []properties.Kind{properties.RouteLeakFree}
	if RoutingKey("s1", leak, 0) == RoutingKey("s2", leak, 0) {
		t.Error("routing key ignores the SRC digest")
	}
	both := []properties.Kind{properties.RouteLeakFree, properties.RouteHijackFree}
	if RoutingKey("s1", leak, 0) == RoutingKey("s1", both, 0) {
		t.Error("routing key ignores the property set")
	}
	// BTE participates only when BlockToExternal is selected.
	if RoutingKey("s1", leak, 7) != RoutingKey("s1", leak, 8) {
		t.Error("BTE leaked into a key without BlockToExternal")
	}
	bte := []properties.Kind{properties.BlockToExternal}
	if RoutingKey("s1", bte, 7) == RoutingKey("s1", bte, 8) {
		t.Error("BTE value missing from a BlockToExternal key")
	}
	if ForwardingKey("p1", leak) == ForwardingKey("p2", leak) {
		t.Error("forwarding key ignores the SPF digest")
	}
}

func TestSplitPropertiesCanonicalizes(t *testing.T) {
	r, f := SplitProperties([]properties.Kind{
		properties.LoopFree, properties.RouteHijackFree, properties.TrafficHijackFree,
		properties.RouteLeakFree, properties.RouteLeakFree, // dup
	})
	wantR := []properties.Kind{properties.RouteLeakFree, properties.RouteHijackFree}
	wantF := []properties.Kind{properties.TrafficHijackFree, properties.LoopFree}
	if len(r) != len(wantR) || r[0] != wantR[0] || r[1] != wantR[1] {
		t.Errorf("routing split = %v, want %v", r, wantR)
	}
	if len(f) != len(wantF) || f[0] != wantF[0] || f[1] != wantF[1] {
		t.Errorf("forwarding split = %v, want %v", f, wantF)
	}
}

// --- DirtyRouters ------------------------------------------------------

func TestDirtyRouters(t *testing.T) {
	old, err := Load(testnet.Figure4)
	if err != nil {
		t.Fatal(err)
	}
	same, err := Load(testnet.Figure4 + "\n// a comment changes nothing\n")
	if err != nil {
		t.Fatal(err)
	}
	if d := DirtyRouters(old, same); len(d) != 0 {
		t.Errorf("comment-only delta dirtied %v", d)
	}
	// Figure4Fixed changes PR1's section (advertise-community on the PR2
	// peering); the dirty closure is PR1 plus its neighbors.
	fixed, err := Load(testnet.Figure4Fixed)
	if err != nil {
		t.Fatal(err)
	}
	d := DirtyRouters(old, fixed)
	found := map[string]bool{}
	for _, name := range d {
		found[name] = true
	}
	if !found["PR1"] || !found["PR2"] {
		t.Errorf("dirty closure %v must contain PR1 (changed) and PR2 (its neighbor)", d)
	}
}

// --- Runner ------------------------------------------------------------

func loadT(t *testing.T, text string) *LoadArtifact {
	t.Helper()
	a, err := Load(text)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func stageStatus(out *Outcome, stage string) string {
	for _, st := range out.Stages {
		if st.Stage == stage {
			return st.Status
		}
	}
	return ""
}

// TestRunnerStageReuse drives the reuse matrix the refactor exists for: a
// request naming a registered baseline with the baseline's own text and a
// grown property set is served the baseline's SRC artifact, counted as a
// hit; adding a forwarding property on top reuses SRC and routing analysis
// and runs only SPF onward. The same request naming no baseline computes a
// fixed point of its own.
func TestRunnerStageReuse(t *testing.T) {
	counts := &Counters{}
	r := &Runner{Counts: counts, Baselines: &BaselineRegistry{}}
	b := registerT(t, r, "prod", testnet.Figure4, []properties.Kind{properties.RouteLeakFree})
	load := loadT(t, testnet.Figure4)
	run := func(baseline string, props ...properties.Kind) *Outcome {
		t.Helper()
		out, err := r.Run(context.Background(), &Request{Load: load, Mode: epvp.FullMode(), Workers: 1,
			Properties: props, Baseline: baseline})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(out.Release)
		return out
	}

	// Property-set change: SRC hit, routing recomputed.
	out2 := run("prod", properties.RouteLeakFree, properties.RouteHijackFree)
	if s := stageStatus(out2, StageSRC); s != StatusHit {
		t.Errorf("property-set change SRC status = %q, want hit", s)
	}
	if s := stageStatus(out2, StageRouting); s != StatusMiss {
		t.Errorf("grown routing property set status = %q, want miss", s)
	}
	if out2.SRC != b.SRC || out2.Stages[0].Note != "baseline=prod" {
		t.Errorf("SRC artifact was not the baseline's (note %q)", out2.Stages[0].Note)
	}
	if len(out2.Routing.Violations) == 0 {
		t.Fatal("Figure4 has no routing violation")
	}

	// Adding a forwarding property: SRC hit, SPF runs once...
	out3 := run("prod", properties.RouteLeakFree, properties.BlackHoleFree)
	if s := stageStatus(out3, StageSPF); s != StatusMiss {
		t.Errorf("first forwarding run SPF status = %q, want miss", s)
	}
	// ...and is reused by the next forwarding request.
	out4 := run("prod", properties.RouteLeakFree, properties.LoopFree)
	if s := stageStatus(out4, StageSPF); s != StatusHit {
		t.Errorf("second forwarding run SPF status = %q, want hit", s)
	}
	if s := stageStatus(out4, StageRouting); s != StatusHit {
		t.Errorf("repeated routing selection status = %q, want hit", s)
	}

	// Naming no baseline: a fixed point of its own, computed.
	anon := run("", properties.RouteLeakFree, properties.RouteHijackFree)
	if s := stageStatus(anon, StageSRC); s != StatusMiss || anon.SRC == b.SRC {
		t.Errorf("anonymous SRC status = %q (the baseline's artifact: %v), want a miss of its own", s, anon.SRC == b.SRC)
	}
	if a, b := fmt.Sprint(anon.Routing.Violations), fmt.Sprint(out2.Routing.Violations); a != b {
		t.Errorf("anonymous violations differ from the baseline's:\n%s\n%s", a, b)
	}
	// The registration's miss, three baseline hits, the anonymous miss.
	if hits, misses := counts.src.hits.Load(), counts.src.misses.Load(); hits != 3 || misses != 2 {
		t.Errorf("src counted %d hits and %d misses, want 3 and 2", hits, misses)
	}
}

// registerT runs text through r and registers its converged state as the
// baseline name; the run's own hold is released.
func registerT(t *testing.T, r *Runner, name, text string, props []properties.Kind) *Baseline {
	t.Helper()
	out, err := r.Run(context.Background(), &Request{Load: loadT(t, text), Mode: epvp.FullMode(),
		Workers: 1, Properties: props})
	if err != nil {
		t.Fatal(err)
	}
	defer out.Release()
	b := NewBaseline(name, text, out, time.Now())
	if err := r.Baselines.Register(b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunnerWarmStart checks the orchestration end of warm-starting: a
// one-router delta naming a registered baseline runs SRC with status "warm",
// seeded by the baseline and noting its dirty count, and converges to the
// same violations as a cold run; the same text without the name runs cold.
func TestRunnerWarmStart(t *testing.T) {
	r := &Runner{Baselines: &BaselineRegistry{}}
	ctx := context.Background()
	props := []properties.Kind{properties.RouteLeakFree, properties.RouteHijackFree}
	base := registerT(t, r, "prod", testnet.Figure4, props)

	anon, err := r.Run(ctx, &Request{Load: loadT(t, testnet.Figure4Fixed), Mode: epvp.FullMode(),
		Workers: 1, Properties: props})
	if err != nil {
		t.Fatal(err)
	}
	defer anon.Release()
	if s := stageStatus(anon, StageSRC); s != StatusMiss {
		t.Errorf("anonymous delta SRC status = %q, want miss", s)
	}
	if anon.SRC.Eng.Space.M == base.SRC.Eng.Space.M {
		t.Error("anonymous delta ran in the baseline's manager")
	}

	next := loadT(t, testnet.Figure4Fixed)
	warm, err := r.Run(ctx, &Request{Load: next, Mode: epvp.FullMode(),
		Workers: 1, Properties: props, Baseline: "prod"})
	if err != nil {
		t.Fatal(err)
	}
	src := warm.Stages[0]
	if src.Status != StatusWarm || src.Seed != base.SRC.Digest {
		t.Fatalf("delta run SRC status %q seed %q, want warm seeded by %q (stages: %+v)", src.Status, src.Seed, base.SRC.Digest, warm.Stages)
	}
	if want := fmt.Sprintf("baseline=prod dirty=%d", len(DirtyRouters(base.SRC.Load, next))); src.Note != want {
		t.Errorf("delta run SRC note = %q, want %q", src.Note, want)
	}
	if len(warm.Routing.Violations) != len(anon.Routing.Violations) {
		t.Fatalf("warm violations = %d, cold = %d", len(warm.Routing.Violations), len(anon.Routing.Violations))
	}
	for i := range warm.Routing.Violations {
		if warm.Routing.Violations[i].String() != anon.Routing.Violations[i].String() {
			t.Errorf("violation %d differs:\nwarm %s\ncold %s", i,
				warm.Routing.Violations[i], anon.Routing.Violations[i])
		}
	}
	if !warm.SRC.Res.Converged {
		t.Error("warm run did not converge")
	}
}

// TestWarmStartWaitsForTheRunLock: everything a warm start builds — the
// changed routers' policy compile as much as the fixed point — goes into
// the baseline's BDD manager, so none of it may happen while another user
// (a job's pre-SPF sweep, say) holds the baseline's run lock. The test is
// that other user: while it holds the lock, a delta naming the baseline
// must leave the manager's unique table untouched.
func TestWarmStartWaitsForTheRunLock(t *testing.T) {
	r := &Runner{Baselines: &BaselineRegistry{}}
	ctx := context.Background()
	props := []properties.Kind{properties.RouteLeakFree}
	prior := registerT(t, r, "prod", testnet.Figure4, props)
	m := prior.SRC.Eng.Space.M

	prior.SRC.runLock.Lock()
	hits, created := m.UniqueStats()
	type result struct {
		out *Outcome
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := r.Run(ctx, &Request{Load: loadT(t, testnet.Figure4Fixed), Mode: epvp.FullMode(),
			Workers: 1, Properties: props, Baseline: "prod"})
		done <- result{out, err}
	}()
	// A violation shows within microseconds of the goroutine starting; a
	// correct run shows nothing, for as long as the window is held open.
	window := time.After(200 * time.Millisecond)
	for open := true; open; {
		select {
		case <-window:
			open = false
		case <-done:
			t.Error("warm start finished while the run lock was held")
			open = false
		default:
			if h, c := m.UniqueStats(); h != hits || c != created {
				t.Errorf("warm start touched the manager under a held run lock: hits %d -> %d, created %d -> %d", hits, h, created, c)
				open = false
			}
			time.Sleep(time.Millisecond)
		}
	}
	prior.SRC.runLock.Unlock()
	if t.Failed() {
		return
	}
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if s := stageStatus(res.out, StageSRC); s != StatusWarm {
		t.Errorf("delta run SRC status = %q, want warm", s)
	}
}

// TestConcurrentMissesBuildOnce: two requests on one baseline's SRC
// artifact that both miss a derived key they share — {leak, traffic} and
// {leak, blackhole} share the SPF key, and find their routing result in
// memory — queue on the artifact's run lock, and the second must be served
// what the first built: one SPF run, one table entry, and the pins a
// sequential pair of the same requests leaves.
func TestConcurrentMissesBuildOnce(t *testing.T) {
	ctx := context.Background()
	request := func(props ...properties.Kind) *Request {
		return &Request{Load: loadT(t, testnet.Figure4), Mode: epvp.FullMode(), Workers: 1, Properties: props, Baseline: "prod"}
	}
	run := func(r *Runner, req *Request) *Outcome {
		out, err := r.Run(ctx, req)
		if err != nil {
			t.Error(err)
			return &Outcome{}
		}
		out.Release()
		return out
	}
	pair := [2]properties.Kind{properties.TrafficHijackFree, properties.BlackHoleFree}

	leak := []properties.Kind{properties.RouteLeakFree}
	seq := &Runner{Baselines: &BaselineRegistry{}}
	base := registerT(t, seq, "prod", testnet.Figure4, leak)
	for _, p := range pair {
		run(seq, request(properties.RouteLeakFree, p))
	}
	want := base.SRC.Eng.Space.M.PinnedCount()

	r := &Runner{Baselines: &BaselineRegistry{}}
	src := registerT(t, r, "prod", testnet.Figure4, leak).SRC
	src.runLock.Lock()
	missed := src.derived.misses.Load()
	var wg sync.WaitGroup
	var outs [2]*Outcome
	for i, p := range pair {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = run(r, request(properties.RouteLeakFree, p))
		}()
	}
	// Both find routing in memory and miss SPF there; then they need the lock.
	for deadline := time.Now().Add(30 * time.Second); src.derived.misses.Load() < missed+2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the two requests never looked SPF up")
		}
	}
	src.runLock.Unlock()
	wg.Wait()
	if t.Failed() {
		return
	}

	statuses := map[string]int{}
	for _, out := range outs {
		statuses[stageStatus(out, StageSPF)]++
	}
	if statuses[StatusMiss] != 1 || statuses[StatusHit] != 1 {
		t.Errorf("SPF statuses of the two requests = %v, want one miss and one hit", statuses)
	}
	if outs[0].SPF != outs[1].SPF {
		t.Error("the two requests hold different SPF artifacts for one key")
	}
	if got := src.Eng.Space.M.PinnedCount(); got != want {
		t.Errorf("PinnedCount after the concurrent pair = %d, after the sequential pair = %d", got, want)
	}
}

// TestPanicUnderTheRunLockReleasesIt: the service recovers a panicking
// verification into a failed job, so a panic inside a locked section — here
// the store write-through of an analysis artifact whose condition handle
// points outside a baseline manager's slab — must not leave the shared run
// lock held: the next job on the same artifact has to run. Nor may it leave the
// artifact filed: its dead handle would root every later sweep of the
// manager (EXPRESSO_RECLAIM=200 sweeps at every barrier of the next job).
func TestPanicUnderTheRunLockReleasesIt(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Store: disk, Baselines: &BaselineRegistry{}}
	ctx := context.Background()
	first := registerT(t, r, "prod", testnet.Figure4, []properties.Kind{properties.RouteLeakFree})

	bad := bdd.Node(1 << 30)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("encoding a handle outside the slab did not panic")
			}
		}()
		spec := analysisSpec(ctx, StageRouting, "poisoned", first.SRC, nil, nil, 0)
		spec.compute = func() (*AnalysisArtifact, error) {
			return &AnalysisArtifact{Violations: []properties.Violation{{Cond: bad}}}, nil
		}
		resolve(ctx, disk, spec, nil)
	}()
	if _, filed := first.SRC.derived.Get("poisoned"); filed {
		t.Fatal("the artifact whose encoding panicked was filed")
	}

	done := make(chan error, 1)
	go func() {
		out, err := r.Run(ctx, &Request{Load: loadT(t, testnet.Figure4), Mode: epvp.FullMode(), Workers: 1,
			Properties: []properties.Kind{properties.RouteLeakFree, properties.BlackHoleFree, properties.LoopFree}, Baseline: "prod"})
		if err == nil && out.SRC != first.SRC {
			err = fmt.Errorf("the job after the panic ran on another SRC artifact (src %s)", stageStatus(out, StageSRC))
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the job after a panic under the run lock never finished: the lock is still held")
	}
}

// loggedLock is a run lock that reports its acquisitions and releases.
type loggedLock struct {
	mu   sync.Mutex
	note func(string)
}

func (l *loggedLock) Lock()   { l.mu.Lock(); l.note("lock") }
func (l *loggedLock) Unlock() { l.note("unlock"); l.mu.Unlock() }

// loggedStore is a store tier that reports its traffic.
type loggedStore struct {
	store.Tier
	note func(string)
}

func (s loggedStore) Get(stage, digest string) ([]byte, bool) {
	s.note("store get")
	return s.Tier.Get(stage, digest)
}
func (s loggedStore) Put(stage, digest string, data []byte) {
	s.note("store put")
	s.Tier.Put(stage, digest, data)
}

// TestResolveLadderEventOrder pins the one rule every stage goes through,
// over a fake stage: an artifact is built, encoded and kept — rooted, and
// filed where the memory rung finds it — under the run lock, and written
// through once the lock is released; one restored from the store is
// decoded and kept under the lock and not written back; one found in memory
// touches neither the lock nor the store.
func TestResolveLadderEventOrder(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	type fake struct{}
	var events []string
	var kept *fake
	note := func(e string) { events = append(events, e) }
	lock := &loggedLock{note: note}
	spec := &stageSpec[*fake]{
		stage: StageRouting, key: "k", lock: lock,
		lookup: func() (*fake, string, bool) { return kept, "", kept != nil },
		decode: func(data []byte) (*fake, error) {
			note("decode")
			return &fake{}, nil
		},
		compute: func() (*fake, error) {
			note("compute")
			return &fake{}, nil
		},
		keep: func(a *fake) {
			if lock.mu.TryLock() {
				lock.mu.Unlock()
				t.Error("artifact kept with the run lock free: a sweep in its manager could have run first")
			}
			note("keep")
			kept = a
		},
		encode: func(*fake) []byte {
			note("encode")
			return []byte("blob")
		},
	}
	run := func(wantStatus, wantEvents string) {
		t.Helper()
		events = nil
		var count tally
		a, info, err := resolve(context.Background(), loggedStore{disk, note}, spec, &count)
		if err != nil || info.Status != wantStatus || a == nil || a != kept {
			t.Fatalf("resolve: artifact %p (kept %p) status %q err %v, want %q", a, kept, info.Status, err, wantStatus)
		}
		if got := strings.Join(events, " "); got != wantEvents {
			t.Errorf("%s:\n got %s\nwant %s", wantStatus, got, wantEvents)
		}
		hits, misses := count.hits.Load(), count.misses.Load()
		if hit := wantStatus == StatusHit; hits+misses != 1 || (hits == 1) != hit {
			t.Errorf("%s: memory rung counted %d hits and %d misses, want one lookup", wantStatus, hits, misses)
		}
	}

	run(StatusMiss, "store get lock compute encode keep unlock store put")
	run(StatusHit, "")
	kept = nil // a restarted process over the store the first run wrote to
	run(StatusDisk, "store get lock decode keep unlock")
}

// TestRunnerIncompatibleDeltaFallsBackCold: a delta that changes the
// community atom universe must refuse its baseline's warm seed and run cold.
func TestRunnerIncompatibleDeltaFallsBackCold(t *testing.T) {
	r := &Runner{Baselines: &BaselineRegistry{}}
	ctx := context.Background()
	props := []properties.Kind{properties.RouteLeakFree}
	registerT(t, r, "prod", testnet.Figure4, props)
	changed := strings.ReplaceAll(testnet.Figure4, "300:100", "300:777")
	out, err := r.Run(ctx, &Request{Load: loadT(t, changed), Mode: epvp.FullMode(),
		Workers: 1, Properties: props, Baseline: "prod"})
	if err != nil {
		t.Fatal(err)
	}
	if s := stageStatus(out, StageSRC); s != StatusMiss {
		t.Errorf("atom-universe delta SRC status = %q, want miss (cold fallback)", s)
	}
}

// TestSPFRunsAtTheRequestsWorkerCount: SPF fans out over the engine's worker
// count, and the engine of an SRC artifact restored from the store was never
// told one — the request that computes SPF on it sets it.
func TestSPFRunsAtTheRequestsWorkerCount(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first := &Runner{Store: disk}
	if _, err := first.Run(ctx, &Request{Load: loadT(t, testnet.Figure4), Mode: epvp.FullMode(),
		Workers: 3, Properties: []properties.Kind{properties.RouteLeakFree}}); err != nil {
		t.Fatal(err)
	}
	restarted := &Runner{Store: disk}
	out, err := restarted.Run(ctx, &Request{Load: loadT(t, testnet.Figure4), Mode: epvp.FullMode(),
		Workers: 1, Properties: []properties.Kind{properties.RouteLeakFree, properties.BlackHoleFree}})
	if err != nil {
		t.Fatal(err)
	}
	if src, spf := stageStatus(out, StageSRC), stageStatus(out, StageSPF); src != StatusDisk || spf != StatusMiss {
		t.Fatalf("SRC %q and SPF %q, want SRC restored from disk and SPF computed", src, spf)
	}
	if got := out.SRC.Eng.Workers; got != 1 {
		t.Errorf("SPF ran on an engine with Workers = %d, want the request's 1", got)
	}
}

// TestRunnerBTEValidation pins the early BTE check and its error text.
func TestRunnerBTEValidation(t *testing.T) {
	r := &Runner{}
	_, err := r.Run(context.Background(), &Request{Load: loadT(t, testnet.Figure4),
		Mode: epvp.FullMode(), Workers: 1,
		Properties: []properties.Kind{properties.BlockToExternal}})
	if err == nil || !strings.Contains(err.Error(), "requires Options.BTE") {
		t.Errorf("err = %v, want the BTE requirement error", err)
	}
}

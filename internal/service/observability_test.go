package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/expresso-verify/expresso/internal/telemetry"
	"github.com/expresso-verify/expresso/internal/testnet"
)

// metricFamily is one parsed exposition family: its TYPE, HELP, and the
// samples attributed to it (including _bucket/_sum/_count for histograms).
type metricFamily struct {
	help    string
	typ     string
	samples []metricSample
}

type metricSample struct {
	name   string // full sample name, e.g. family_bucket
	labels map[string]string
	value  float64
}

// parseExposition parses Prometheus text exposition format strictly
// enough for the format test: every sample line must parse, and every
// sample must belong to a family announced by # HELP and # TYPE.
func parseExposition(t *testing.T, text string) map[string]*metricFamily {
	t.Helper()
	families := map[string]*metricFamily{}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			f := families[name]
			if f == nil {
				f = &metricFamily{}
				families[name] = f
			}
			f.help = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: TYPE without type: %q", ln+1, line)
			}
			if typ != "counter" && typ != "gauge" && typ != "histogram" && typ != "summary" {
				t.Fatalf("line %d: unknown TYPE %q", ln+1, typ)
			}
			f := families[name]
			if f == nil {
				f = &metricFamily{}
				families[name] = f
			}
			f.typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}

		// Sample line: name[{labels}] value
		nameAndLabels, valueText, ok := cutLast(line, " ")
		if !ok {
			t.Fatalf("line %d: no value: %q", ln+1, line)
		}
		value, err := strconv.ParseFloat(valueText, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valueText, err)
		}
		name := nameAndLabels
		labels := map[string]string{}
		if i := strings.IndexByte(nameAndLabels, '{'); i >= 0 {
			name = nameAndLabels[:i]
			body := strings.TrimSuffix(nameAndLabels[i+1:], "}")
			for _, pair := range strings.Split(body, ",") {
				k, v, ok := strings.Cut(pair, "=")
				if !ok {
					t.Fatalf("line %d: bad label pair %q", ln+1, pair)
				}
				unquoted, err := strconv.Unquote(v)
				if err != nil {
					t.Fatalf("line %d: label value %s not quoted: %v", ln+1, v, err)
				}
				labels[k] = unquoted
			}
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if f, ok := families[base]; ok && f.typ == "histogram" {
				family = base
				break
			}
		}
		f := families[family]
		if f == nil {
			t.Fatalf("line %d: sample %q precedes its # HELP/# TYPE", ln+1, name)
		}
		f.samples = append(f.samples, metricSample{name: name, labels: labels, value: value})
	}
	return families
}

// cutLast splits s around the final occurrence of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}

// TestMetricsExpositionFormat checks the full /metrics output is
// well-formed: every sample belongs to an announced family, counter names
// end in _total, and histogram buckets are cumulative and consistent with
// their _count. The families and their types are the ones
// testdata/metrics_types.golden lists — written by the commit before
// /metrics became a rendering of Snapshot, from this very sequence of
// requests — so no family was lost, added or retyped since.
func TestMetricsExpositionFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, StoreDir: t.TempDir()})
	req := JobRequest{Config: testnet.Figure4Fixed, Properties: []string{"leak"}, Wait: true}
	postVerify(t, ts, req)
	postVerify(t, ts, req) // cache hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	families := parseExposition(t, buf.String())

	var types []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types = append(types, line)
		}
	}
	sort.Strings(types)
	golden, err := os.ReadFile("testdata/metrics_types.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(types, "\n") + "\n"; got != string(golden) {
		t.Errorf("metric families or types changed:\n got:\n%s\nwant:\n%s", got, golden)
	}

	if len(families) == 0 {
		t.Fatal("no metric families exposed")
	}
	for name, f := range families {
		if f.help == "" {
			t.Errorf("family %s has no # HELP", name)
		}
		if f.typ == "" {
			t.Errorf("family %s has no # TYPE", name)
		}
		if len(f.samples) == 0 {
			t.Errorf("family %s announced but has no samples", name)
		}
		if f.typ == "counter" && !strings.HasSuffix(name, "_total") {
			t.Errorf("counter %s does not end in _total", name)
		}
		for _, s := range f.samples {
			if f.typ != "histogram" && s.name != name {
				t.Errorf("family %s has stray sample %s", name, s.name)
			}
		}
	}

	// Build-info gauge: constant 1, labeled with the binary's identity.
	if bi, ok := families["expresso_build_info"]; !ok {
		t.Error("expresso_build_info missing")
	} else {
		if bi.typ != "gauge" {
			t.Errorf("expresso_build_info TYPE = %q, want gauge", bi.typ)
		}
		if len(bi.samples) != 1 {
			t.Fatalf("expresso_build_info has %d samples, want 1", len(bi.samples))
		}
		s := bi.samples[0]
		if s.value != 1 {
			t.Errorf("expresso_build_info value = %g, want 1", s.value)
		}
		if s.labels["go"] != runtime.Version() {
			t.Errorf("expresso_build_info go = %q, want %q", s.labels["go"], runtime.Version())
		}
		for _, l := range []string{"version", "revision"} {
			if _, ok := s.labels[l]; !ok {
				t.Errorf("expresso_build_info missing label %q", l)
			}
		}
	}

	// A warm start needs a registered baseline; the HELP text says so.
	const warmHelp = "SRC computations warm-started from a registered baseline's fixed point."
	if w, ok := families["expresso_warm_starts_total"]; !ok || w.help != warmHelp {
		t.Errorf("expresso_warm_starts_total HELP = %+v, want %q", w, warmHelp)
	}

	// Queue gauges: nothing is waiting after two Wait=true jobs.
	for _, name := range []string{"expresso_queue_depth", "expresso_queue_oldest_seconds"} {
		g, ok := families[name]
		if !ok {
			t.Errorf("%s missing", name)
			continue
		}
		if g.typ != "gauge" {
			t.Errorf("%s TYPE = %q, want gauge", name, g.typ)
		}
		if len(g.samples) != 1 || g.samples[0].value != 0 {
			t.Errorf("%s = %+v, want single 0 sample", name, g.samples)
		}
	}

	// Nothing panicked: the family is announced, as a counter, at zero.
	if c, ok := families["expresso_job_panics_total"]; !ok {
		t.Error("expresso_job_panics_total missing")
	} else if c.typ != "counter" || len(c.samples) != 1 || c.samples[0].value != 0 {
		t.Errorf("expresso_job_panics_total = %s %+v, want a counter with a single 0 sample", c.typ, c.samples)
	}

	// Per-baseline SLO histograms: both Wait=true submissions were
	// anonymous, and only the first ran (the second hit the result cache),
	// so each family has exactly one observation under baseline="".
	for _, name := range []string{"expresso_job_queue_wait_seconds", "expresso_job_verdict_seconds"} {
		h, ok := families[name]
		if !ok {
			t.Errorf("%s missing", name)
			continue
		}
		if h.typ != "histogram" {
			t.Errorf("%s TYPE = %q, want histogram", name, h.typ)
		}
		var count, inf float64
		var haveCount, haveInf bool
		for _, s := range h.samples {
			if b, ok := s.labels["baseline"]; !ok {
				t.Errorf("%s sample %s has no baseline label", name, s.name)
			} else if b != "" {
				t.Errorf("%s sample has baseline %q, want anonymous", name, b)
			}
			switch {
			case s.name == name+"_count":
				count, haveCount = s.value, true
			case s.name == name+"_bucket" && s.labels["le"] == "+Inf":
				inf, haveInf = s.value, true
			}
		}
		if !haveCount || !haveInf {
			t.Errorf("%s missing _count or +Inf bucket", name)
		} else if count != 1 || inf != 1 {
			t.Errorf("%s count = %g, +Inf = %g, want 1 observation", name, count, inf)
		}
	}

	hist, ok := families["expresso_stage_duration_seconds"]
	if !ok {
		t.Fatal("expresso_stage_duration_seconds histogram missing")
	}
	if hist.typ != "histogram" {
		t.Fatalf("expresso_stage_duration_seconds TYPE = %q", hist.typ)
	}
	// Group buckets by stage label and check cumulativeness per stage.
	type stageAgg struct {
		les     []float64
		counts  map[float64]float64
		infSeen bool
		inf     float64
		count   float64
		sum     float64
	}
	stages := map[string]*stageAgg{}
	agg := func(stage string) *stageAgg {
		a := stages[stage]
		if a == nil {
			a = &stageAgg{counts: map[float64]float64{}}
			stages[stage] = a
		}
		return a
	}
	for _, s := range hist.samples {
		a := agg(s.labels["stage"])
		switch s.name {
		case "expresso_stage_duration_seconds_bucket":
			le := s.labels["le"]
			if le == "+Inf" {
				a.infSeen = true
				a.inf = s.value
				continue
			}
			f, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("bad le label %q: %v", le, err)
			}
			a.les = append(a.les, f)
			a.counts[f] = s.value
		case "expresso_stage_duration_seconds_sum":
			a.sum = s.value
		case "expresso_stage_duration_seconds_count":
			a.count = s.value
		}
	}
	wantStages := []string{"load", "src", "routing_analysis", "spf", "forwarding_analysis"}
	if len(stages) != len(wantStages) {
		t.Errorf("histogram covers %d stages, want %d", len(stages), len(wantStages))
	}
	for _, stage := range wantStages {
		a := stages[stage]
		if a == nil {
			t.Errorf("no histogram series for stage %q", stage)
			continue
		}
		if !a.infSeen {
			t.Errorf("stage %q has no +Inf bucket", stage)
			continue
		}
		sort.Float64s(a.les)
		prev := 0.0
		for _, le := range a.les {
			if a.counts[le] < prev {
				t.Errorf("stage %q: bucket le=%g count %g < previous %g (not cumulative)",
					stage, le, a.counts[le], prev)
			}
			prev = a.counts[le]
		}
		if a.inf < prev {
			t.Errorf("stage %q: +Inf bucket %g < largest finite bucket %g", stage, a.inf, prev)
		}
		if a.count != a.inf {
			t.Errorf("stage %q: _count %g != +Inf bucket %g", stage, a.count, a.inf)
		}
		// One completed job was observed per stage.
		if a.count != 1 {
			t.Errorf("stage %q: _count = %g, want 1", stage, a.count)
		}
		if a.sum < 0 {
			t.Errorf("stage %q: negative _sum %g", stage, a.sum)
		}
	}
}

// sampleValue returns the value of the sample called name — a family's own
// name, or a histogram's _sum or _count — that carries the given label
// values (key, value, ...).
func sampleValue(t *testing.T, families map[string]*metricFamily, name string, labels ...string) float64 {
	t.Helper()
	family := name
	for _, suffix := range []string{"_sum", "_count"} {
		if f := families[strings.TrimSuffix(name, suffix)]; f != nil && f.typ == "histogram" {
			family = strings.TrimSuffix(name, suffix)
		}
	}
	if families[family] == nil {
		t.Fatalf("/metrics has no family %s", family)
	}
samples:
	for _, sm := range families[family].samples {
		for i := 0; i < len(labels); i += 2 {
			if sm.labels[labels[i]] != labels[i+1] {
				continue samples
			}
		}
		if sm.name == name {
			return sm.value
		}
	}
	t.Fatalf("/metrics has no sample %s%v", name, labels)
	return 0
}

// TestSnapshotRenderings reads one Snapshot — a job done, one running, one
// queued — and renders it to every surface: the numbers two endpoints both
// report agree because they are one number.
func TestSnapshotRenderings(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServerWith(t, Config{Workers: 1}, func(s *Server) { blockSlow(s, release) })
	defer close(release)
	postVerify(t, ts, JobRequest{Config: testnet.Figure4Fixed, Properties: []string{"leak"}, Wait: true})
	registerBaseline(t, s, "prod", testnet.Figure4Fixed) // the one manager kept between jobs
	startSlow(t, ts, "router slow\n")
	postVerify(t, ts, JobRequest{Config: "router slower\n"})

	sn := s.Snapshot(true)
	var page bytes.Buffer
	sn.WriteMetrics(&page)
	families := parseExposition(t, page.String())
	value := func(name string, labels ...string) float64 {
		t.Helper()
		return sampleValue(t, families, name, labels...)
	}

	// /debug/queue and the queue gauges.
	if sn.Queue.Depth != 1 || sn.Queue.Running != 1 || sn.Queue.OldestSeconds <= 0 {
		t.Fatalf("queue view = %+v, want one queued job behind one running", sn.Queue)
	}
	if got := value("expresso_queue_depth"); got != float64(sn.Queue.Depth) {
		t.Errorf("expresso_queue_depth = %g, /debug/queue depth = %d", got, sn.Queue.Depth)
	}
	if got := value("expresso_queue_oldest_seconds"); got != sn.Queue.OldestSeconds {
		t.Errorf("expresso_queue_oldest_seconds = %g, /debug/queue oldest_seconds = %g", got, sn.Queue.OldestSeconds)
	}

	// /healthz and expresso_build_info.
	code, body := sn.health()
	health := body.(healthStatus)
	if code != http.StatusOK || health.Status != "ok" {
		t.Errorf("health = %d %+v, want 200 ok", code, health)
	}
	value("expresso_build_info", "version", health.Version, "revision", health.Revision, "go", health.GoVersion)

	// The cumulative stage families are the stage histograms' sum and count.
	for _, stage := range stageLabels {
		total := value("expresso_stage_" + stage + "_seconds_total")
		if sum := value("expresso_stage_duration_seconds_sum", "stage", stage); total != sum {
			t.Errorf("expresso_stage_%s_seconds_total = %g, the histogram's sum = %g", stage, total, sum)
		}
		if jobs, n := value("expresso_stage_jobs_total"), value("expresso_stage_duration_seconds_count", "stage", stage); jobs != 1 || n != 1 {
			t.Errorf("expresso_stage_jobs_total = %g, the %s histogram's count = %g, want 1 and 1", jobs, stage, n)
		}
	}
	if value("expresso_stage_src_seconds_total") <= 0 {
		t.Error("expresso_stage_src_seconds_total is zero after a completed job")
	}

	// /debug/stats and /debug/bdd.
	if sn.Runtime.Goroutines <= 0 || sn.Runtime.HeapAlloc == 0 || !sn.Runtime.Time.Equal(sn.Time) {
		t.Errorf("implausible runtime stats: %+v", sn.Runtime)
	}
	_, body = sn.profiles()
	if view := body.(debugBDD); len(view.Managers) != 1 || view.Managers[0].Name != "prod" || view.Reclaim != sn.Reclaim || !view.Time.Equal(sn.Time) {
		t.Errorf("/debug/bdd = %d managers, reclaim %+v, want the baseline's manager and the snapshot's totals", len(view.Managers), view.Reclaim)
	}
	if got := s.Snapshot(false).Managers; got != nil {
		t.Errorf("a snapshot nobody asked profiles of carries %d", len(got))
	}
}

// TestHealthzBuildInfo checks GET /healthz reports liveness plus the
// binary's build identity.
func TestHealthzBuildInfo(t *testing.T) {
	s := New(Config{Workers: 1})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status = %d", rec.Code)
	}
	var st healthStatus
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if st.Status != "ok" {
		t.Errorf("status = %q, want ok", st.Status)
	}
	if st.GoVersion != runtime.Version() {
		t.Errorf("go_version = %q, want %q", st.GoVersion, runtime.Version())
	}
}

// TestJobTraceEndpoint checks GET /v1/jobs/{id}/trace serves the run
// trace when tracing is on, and 404s for unknown jobs and untraced runs.
func TestJobTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Trace: true})
	code, st := postVerify(t, ts, JobRequest{
		Config: testnet.Figure4Fixed, Properties: []string{"leak"}, Wait: true,
	})
	if code != http.StatusOK || st.State != JobDone {
		t.Fatalf("verify: status %d state %s (err %q)", code, st.State, st.Error)
	}

	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/trace", ts.URL, st.ID))
	if err != nil {
		t.Fatalf("GET trace: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", resp.StatusCode)
	}
	var trace telemetry.Trace
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	if trace.Schema != telemetry.SchemaVersion {
		t.Errorf("trace schema = %q, want %q", trace.Schema, telemetry.SchemaVersion)
	}
	if len(trace.EPVPRounds) == 0 {
		t.Error("trace has no EPVP rounds")
	}
	if len(trace.Spans) == 0 {
		t.Error("trace has no spans")
	}
	if trace.Digest != st.Digest {
		t.Errorf("trace digest = %q, want job digest %q", trace.Digest, st.Digest)
	}

	if resp, err := http.Get(ts.URL + "/v1/jobs/j-999999/trace"); err != nil {
		t.Fatalf("GET unknown trace: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job trace status = %d, want 404", resp.StatusCode)
		}
	}

	// A cache-hit job never ran the engine, so it has no trace.
	code, hit := postVerify(t, ts, JobRequest{
		Config: testnet.Figure4Fixed, Properties: []string{"leak"}, Wait: true,
	})
	if code != http.StatusOK || !hit.CacheHit {
		t.Fatalf("second submit: status %d, cache hit %v", code, hit.CacheHit)
	}
	if resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/trace", ts.URL, hit.ID)); err != nil {
		t.Fatalf("GET cache-hit trace: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("cache-hit trace status = %d, want 404", resp.StatusCode)
		}
	}
}

// TestTraceDisabledByDefault checks jobs record no trace unless
// Config.Trace is set.
func TestTraceDisabledByDefault(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, st := postVerify(t, ts, JobRequest{
		Config: testnet.Figure4Fixed, Properties: []string{"leak"}, Wait: true,
	})
	if code != http.StatusOK || st.State != JobDone {
		t.Fatalf("verify: status %d state %s", code, st.State)
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/trace", ts.URL, st.ID))
	if err != nil {
		t.Fatalf("GET trace: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("untraced job trace status = %d, want 404", resp.StatusCode)
	}
}

// TestDebugHandler checks the debug mux serves the pprof index, the
// runtime-stats snapshot, and the engine introspection endpoints.
func TestDebugHandler(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	postVerify(t, ts, JobRequest{
		Config: testnet.Figure4Fixed, Properties: []string{"leak"}, Wait: true,
	})
	registerBaseline(t, s, "prod", testnet.Figure4Fixed)
	h := s.DebugHandler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("pprof index status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("pprof index does not list profiles:\n%.200s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("debug stats status = %d", rec.Code)
	}
	var st debugStats
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if st.Goroutines <= 0 || st.NumCPU <= 0 || st.HeapAlloc == 0 {
		t.Errorf("implausible runtime stats: %+v", st)
	}

	// /debug/bdd: the registered baseline keeps its SRC artifact's
	// manager, so its profile must be reported, with a populated level
	// histogram and watermark; the finished anonymous job keeps none.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/bdd", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("debug bdd status = %d", rec.Code)
	}
	var bddBody debugBDD
	if err := json.NewDecoder(rec.Body).Decode(&bddBody); err != nil {
		t.Fatalf("decode bdd: %v", err)
	}
	if len(bddBody.Managers) != 1 || bddBody.Managers[0].Name != "prod" {
		t.Fatalf("debug bdd reports %d managers, want the baseline's alone", len(bddBody.Managers))
	}
	p := bddBody.Managers[0].Profile
	if p.LiveNodes <= 0 || len(p.Levels) == 0 {
		t.Errorf("empty profile: live=%d levels=%d", p.LiveNodes, len(p.Levels))
	}
	if p.PeakLiveNodes < p.LiveNodes {
		t.Errorf("peak %d < live %d", p.PeakLiveNodes, p.LiveNodes)
	}

	// /debug/queue: idle after the Wait=true job.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/queue", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("debug queue status = %d", rec.Code)
	}
	var qs QueueStats
	if err := json.NewDecoder(rec.Body).Decode(&qs); err != nil {
		t.Fatalf("decode queue: %v", err)
	}
	if qs.Depth != 0 || qs.Running != 0 {
		t.Errorf("queue not idle: %+v", qs)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/extraction"
	"repro/internal/server"
)

var tiny struct {
	once sync.Once
	pb   *core.Probase
	err  error
}

// tinyProbase builds a toy taxonomy in-process, once for all tests.
func tinyProbase(t *testing.T) *core.Probase {
	t.Helper()
	tiny.once.Do(func() {
		w := corpus.DefaultWorld(1)
		c := corpus.NewGenerator(w, corpus.GenConfig{Sentences: 4000, Seed: corpusSeed}).Generate()
		inputs := make([]extraction.Input, len(c.Sentences))
		for i, s := range c.Sentences {
			inputs[i] = extraction.Input{Text: s.Text, PageScore: s.PageScore}
		}
		tiny.pb, tiny.err = core.Build(inputs, core.Config{})
	})
	if tiny.err != nil {
		t.Fatal(tiny.err)
	}
	return tiny.pb
}

func TestPlanIsAPureFunctionOfSnapshotAndSeed(t *testing.T) {
	pb := tinyProbase(t)
	for _, cold := range []bool{false, true} {
		hash := func(seed int64) string {
			p, err := buildPlan(pb, cold, seed, 300)
			if err != nil {
				t.Fatal(err)
			}
			return p.streamHash(conns, 2000)
		}
		if a, b := hash(11), hash(11); a != b {
			t.Errorf("cold=%v: seed 11 gave two URI streams: %s and %s", cold, a, b)
		}
		if a, b := hash(11), hash(12); a == b {
			t.Errorf("cold=%v: seeds 11 and 12 gave the same URI stream %s", cold, a)
		}
	}
}

// hitRatio serves n requests of the plan's stream from an in-process
// server and returns the share answered from its response cache.
func hitRatio(srv *server.Server, p *plan, n int) float64 {
	next, hits := p.stream(0, 1), 0
	for i := 0; i < n; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p.pool[next()].uri, nil))
		if rec.Header().Get("X-Cache") == "hit" {
			hits++
		}
	}
	return float64(hits) / float64(n)
}

func TestHotPlanHitsAndColdPlanMissesTheCache(t *testing.T) {
	pb := tinyProbase(t)
	hot, err := buildPlan(pb, false, 11, smokeSizes.HotPool)
	if err != nil {
		t.Fatal(err)
	}
	if got := hitRatio(server.New(pb, server.Config{}), hot, 8000); got < 0.95 {
		t.Errorf("hot plan: hit ratio %.3f, want at least 0.95", got)
	}
	cold, err := buildPlan(pb, true, 11, smokeSizes.ColdPool)
	if err != nil {
		t.Fatal(err)
	}
	// More requests than the pool holds: a second lap still has to miss.
	if got := hitRatio(server.New(pb, server.Config{}), cold, smokeSizes.ColdPool+4000); got > 0.05 {
		t.Errorf("cold plan: hit ratio %.3f, want at most 0.05", got)
	}
}

func TestExpectedAnswersComeFromTheSnapshot(t *testing.T) {
	pb := tinyProbase(t)
	p, err := buildPlan(pb, true, 11, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.fillExpected(pb); err != nil {
		t.Fatal(err)
	}
	known := 0
	for i, body := range p.expected {
		if body == nil {
			continue
		}
		known++
		if i%checkEvery != 0 || !json.Valid(body) {
			t.Errorf("expected[%d] = %.60q: want valid JSON at every %dth entry only", i, body, checkEvery)
		}
	}
	if known != 256/checkEvery {
		t.Errorf("%d expected answers for a cold pool of 256, want %d", known, 256/checkEvery)
	}
}

func TestMedianPercentileAndSupportedTail(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 5,1,3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4,1,3,2 = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
	sorted := make([]int64, 100)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for q, want := range map[float64]int64{0.5: 50, 0.99: 99, 0.999: 100, 0: 1} {
		if got := percentile(sorted, q); got != want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", q, got, want)
		}
	}
	for n, want := range map[int]float64{50: 0.5, 100: 0.9, 1000: 0.99, 9999: 0.99, 10000: 0.999} {
		if got := supportedTail(n); got != want {
			t.Errorf("supportedTail(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestSummarizeReportsTheBestWindow(t *testing.T) {
	ms := int64(time.Millisecond)
	ws := merge(
		[]window{{lat: []int64{3 * ms, 1 * ms}, attempted: 2}, {lat: []int64{10 * ms}, attempted: 2, failed: 1}, {attempted: 1, failed: 1}},
		[]window{{lat: []int64{2 * ms}, attempted: 1}, {lat: []int64{30 * ms}, attempted: 1}, {}},
	)
	s := summarize(ws, 2)
	// Window p50s are 2 and 10 ms (the third window is empty); two
	// connections at a mean latency of 2 ms deliver 1000 operations a
	// second, at 20 ms 100.
	if s.p50ms != 2 || s.perSec != 1000 {
		t.Errorf("p50 %v ms at %v/s, want the best window's 2 ms at 1000/s", s.p50ms, s.perSec)
	}
	if s.samples != 5 || s.attempted != 7 || s.failed != 2 {
		t.Errorf("samples %d, attempted %d, failed %d; want 5, 7, 2", s.samples, s.attempted, s.failed)
	}
	// 1 and 2 ms meet the 2 ms limit; a failed operation counts as missing it.
	if want := 2.0 / 7; s.withinLimit != want {
		t.Errorf("within limit %v, want %v", s.withinLimit, want)
	}
	// Window rates 1000 and 100 per second: spread (1000-100)/550.
	if s.maxUS != 30000 || s.spread != 900.0/550 {
		t.Errorf("max %v us, spread %v; want 30000, %v", s.maxUS, s.spread, 900.0/550)
	}
}

func TestRescoreDependsOnTheSeedOnly(t *testing.T) {
	lines := []string{"1\t0.5\tfirst", "1\t0.5\tsecond", "2\t0.7\tthird"}
	a, err := rescore(lines, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := rescore(lines, 11)
	c, _ := rescore(lines, 12)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Errorf("seed 11 twice: %q, %q; seed 12: %q", a, b, c)
	}
	score := func(line string) string { return strings.Split(line, "\t")[1] }
	if score(a[0]) != score(a[1]) || score(a[0]) == score(a[2]) || !strings.HasSuffix(a[2], "\tthird") {
		t.Errorf("rescored %q: want one score per page and the text kept", a)
	}
	if _, err := rescore([]string{"no tabs"}, 1); err == nil {
		t.Error("a malformed corpus line was accepted")
	}
}

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	tr := newTracer("test")
	tr.spans = []span{
		{ID: 1, Name: "root", StartUS: 0, EndUS: 100},
		{ID: 2, Parent: 1, Name: "a", StartUS: 10, EndUS: 40},
		{ID: 3, Parent: 1, Name: "b", StartUS: 40, EndUS: 90},
		{ID: 4, Parent: 3, Name: "b.inner", StartUS: 50, EndUS: 60},
	}
	if got := tr.selfTime(1); got != 20*time.Microsecond {
		t.Errorf("self time of root = %v, want 20µs", got)
	}
	if got := tr.under(1, "b.inner"); got != 10*time.Microsecond {
		t.Errorf("b.inner under root lasts %v, want 10µs", got)
	}
	o := newOutcome()
	tr.checkNesting(o)
	if len(o.violations) != 0 {
		t.Errorf("well-nested spans violate: %v", o.violations)
	}
	tr.spans[3].EndUS = 95 // b.inner now outlives b
	tr.checkNesting(o)
	if len(o.violations) == 0 {
		t.Error("a child that leaves its parent was not reported")
	}
}

func TestStageReporterNestsStagesUnderTheOpenSpan(t *testing.T) {
	tr := newTracer("test")
	root := tr.begin("core.build")
	tr.StageStart("taxonomy")
	tr.StageStart("taxonomy.horizontal")
	tr.StageEnd("taxonomy.horizontal", 0)
	tr.Count("taxonomy", "senses", 7)
	tr.StageEnd("taxonomy", 0)
	tr.end(root)
	if got := []int{tr.spans[1].Parent, tr.spans[2].Parent}; !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("parents of taxonomy, taxonomy.horizontal = %v, want [1 2]", got)
	}
	if len(tr.open) != 0 || tr.counters["taxonomy/senses"] != 7 {
		t.Errorf("open spans %v, counters %v", tr.open, tr.counters)
	}
}

// sampleReport is a report with one correct run per listed workload.
func sampleReport(values map[string]map[string]float64) Report {
	r := Report{Env: Env{NProc: 2, Seed: 11, Seconds: 8, Sizes: fullSizes, Started: time.Unix(0, 0).UTC()}}
	for _, w := range workloads {
		if values[w.name] == nil {
			continue
		}
		metrics := map[string]Metric{}
		for _, d := range endToEnd {
			metrics[d.Name] = Metric{Value: values[w.name][d.Name], Unit: d.Unit}
		}
		r.Runs = append(r.Runs, Run{Workload: w.name, Result: Result{Correct: true, Attempted: 3, Metrics: metrics},
			Samples: map[string]int{"op_p50_ms": 3}, Info: map[string]float64{"build_wall_s": 3.7}})
	}
	return r
}

func TestReportRoundTripsAndResultHasTheContractKeys(t *testing.T) {
	want := sampleReport(map[string]map[string]float64{"build-wide": {"setup_s": 0.5, "op_p50_ms": 3700, "ops_per_s": 0.27}})
	path := filepath.Join(t.TempDir(), "report.json")
	if err := writeJSON(path, want); err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := readJSON(path, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report changed in a round trip:\n got %+v\nwant %+v", got, want)
	}
	line, _ := json.Marshal(want.Runs[0].Result)
	var keys map[string]json.RawMessage
	json.Unmarshal(line, &keys)
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("result line %s: want exactly correct, attempted, failed, metrics", line)
	}
}

func TestOutcomeRefusesAMissingMetric(t *testing.T) {
	o := newOutcome()
	o.set("setup_s", 1)
	if _, err := o.result(endToEnd); err == nil {
		t.Error("a result without op_p50_ms was accepted")
	}
}

// The liveness proof of compare: a report doctored past the bounds must
// fail it, and the same report twice must pass.
func TestCompareFailsADoctoredReport(t *testing.T) {
	base := map[string]map[string]float64{
		"build-wide": {"setup_s": 0.5, "op_p50_ms": 3700, "ops_per_s": 0.27},
		"serve-hot":  {"setup_s": 9, "op_p50_ms": 0.145, "ops_per_s": 13000},
	}
	dir := t.TempDir()
	write := func(name string, edit func(map[string]map[string]float64)) string {
		values := map[string]map[string]float64{}
		for w, ms := range base {
			values[w] = map[string]float64{}
			for m, v := range ms {
				values[w][m] = v
			}
		}
		edit(values)
		path := filepath.Join(dir, name)
		if err := writeJSON(path, sampleReport(values)); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", func(map[string]map[string]float64) {})
	same := write("same.json", func(map[string]map[string]float64) {})
	slowBuild := write("slow.json", func(v map[string]map[string]float64) { v["build-wide"]["op_p50_ms"] *= 1.5 })
	halfRate := write("half.json", func(v map[string]map[string]float64) { v["serve-hot"]["ops_per_s"] *= 0.5 })
	better := write("better.json", func(v map[string]map[string]float64) {
		v["build-wide"]["op_p50_ms"] *= 0.5
		v["serve-hot"]["ops_per_s"] *= 2
	})
	lost := write("lost.json", func(v map[string]map[string]float64) { delete(v, "serve-hot") })
	for _, c := range []struct {
		b    string
		want int
	}{{same, 0}, {better, 0}, {slowBuild, 1}, {halfRate, 1}, {lost, 1}} {
		var out bytes.Buffer
		if got := compareMain([]string{"-benchmark", "../BENCHMARK.json", a, c.b}, &out); got != c.want {
			t.Errorf("compare a.json %s exits %d, want %d:\n%s", filepath.Base(c.b), got, c.want, out.String())
		}
	}
}

// BENCHMARK.json and the code name the same workloads and metrics.
func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	var bench benchmarkFile
	if err := readJSON("../BENCHMARK.json", &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, want)
	}
	same := func(kind string, file []boundedMetric, code []metricDef) {
		var got []metricDef
		for _, m := range file {
			got = append(got, metricDef{m.Name, m.Unit})
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, m.Name, m.Better)
			}
		}
		if !reflect.DeepEqual(got, code) {
			t.Errorf("BENCHMARK.json %s metrics differ from the code:\n file %v\n code %v", kind, got, code)
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	for _, m := range bench.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if _, err := os.Stat(filepath.Join("..", bench.Command[len(bench.Command)-1])); err != nil {
		t.Errorf("command %v: %v", bench.Command, err)
	}
}

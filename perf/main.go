// Command perf is the repository's benchmark: it drives the real
// binaries (corpusgen, probase-build, probase-serve -mmap) through the
// three waits an operator or an application has — corpus to snapshot,
// snapshot file to first answer and hot reload, request to reply — and,
// with --trace 1, times the calls into each layer's public functions
// from its own code. README.md in this directory is the glossary of
// workloads and metrics; BENCHMARK.json at the repository root fixes
// their names, units and bounds.
//
//	bash perf/run.sh --workload serve-hot --seed 11 --seconds 6 --trace 0
//	bash perf/run.sh --workload all --out report.json
//	bash perf/run.sh --smoke
//	bash perf/run.sh compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
)

// sizes are the input sizes and run lengths of one invocation.
type sizes struct {
	Wide, Deep     corpusSpec
	DeltaSentences int     // appended to Wide's corpus by build-delta
	HotPool        int     // distinct requests of a hot plan: fits the 16 x 512 response cache
	ColdPool       int     // distinct requests of a cold plan: four times the cache
	WarmupSeconds  float64 // closed-loop warm-up before the first window
	Windows        int     // measurement windows of a serve run, --seconds / Windows long each
	MinRepeats     int     // fewest builds measured, however short --seconds is
	LadderRequests int     // requests timed at each rung of the traced serve ladder
	OpenRepeats    int     // opens timed by the traced open ladder
	TracedSeconds  float64 // length of the traced pass's run against the real server
}

var fullSizes = sizes{
	Wide: corpusSpec{120000, 1}, Deep: corpusSpec{40000, 16}, DeltaSentences: 1200,
	HotPool: 2000, ColdPool: 32768, WarmupSeconds: 2, Windows: 8, MinRepeats: 2,
	LadderRequests: 10000, OpenRepeats: 5, TracedSeconds: 3,
}

var smokeSizes = sizes{
	Wide: corpusSpec{6000, 1}, Deep: corpusSpec{3000, 2}, DeltaSentences: 120,
	HotPool: 200, ColdPool: 16384, WarmupSeconds: 0.2, Windows: 2, MinRepeats: 2,
	LadderRequests: 500, OpenRepeats: 3, TracedSeconds: 0.4,
}

// workload is one named set of inputs. Its corpus and request plan also
// feed the traced pass, which is the same ledger for every workload.
type workload struct {
	name   string
	corpus func(sizes) corpusSpec
	cold   bool // request plan
	// prepare is the set-up: everything a run needs before the first
	// measured operation. measure runs for about the given seconds.
	prepare func(e *env, w workload) (*prepared, error)
	measure func(e *env, p *prepared, seconds float64, o *outcome) error
}

func wide(s sizes) corpusSpec { return s.Wide }
func deep(s sizes) corpusSpec { return s.Deep }

// workloads lists every workload in BENCHMARK.json's order. The reason
// each exists is its "why" there and its row in README.md.
var workloads = []workload{
	{name: "build-wide", corpus: wide, prepare: prepareBuild, measure: measureBuild},
	{name: "build-deep", corpus: deep, prepare: prepareBuild, measure: measureBuild},
	{name: "build-delta", corpus: wide, prepare: prepareDelta, measure: measureBuild},
	{name: "serve-hot", corpus: deep, prepare: prepareServe, measure: measureServe},
	{name: "serve-cold", corpus: deep, cold: true, prepare: prepareServe, measure: measureServe},
	{name: "serve-reload", corpus: deep, prepare: prepareServe, measure: measureReload},
}

// metricDef names one metric; BENCHMARK.json lists the same names and
// units (a test holds the two together).
type metricDef struct{ Name, Unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the object a run prints as its last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Run is one workload's entry in a report file: its Result plus what
// that object has no room for.
type Run struct {
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	Result
	// Samples is the number of operations behind each timing.
	Samples map[string]int `json:"samples,omitempty"`
	// Info holds measurements reported for information only.
	Info map[string]float64 `json:"info,omitempty"`
	// Violations lists every correctness or ladder self-check that failed.
	Violations  []string `json:"violations,omitempty"`
	WallSeconds float64  `json:"wall_seconds"`
}

// Report is the file --out writes and compare reads.
type Report struct {
	Env  Env   `json:"env"`
	Runs []Run `json:"runs"`
}

// Env records where and how a report was measured.
type Env struct {
	NProc      int       `json:"nproc"`
	GoMaxProcs int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Commit     string    `json:"commit"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Smoke      bool      `json:"smoke"`
	Conns      int       `json:"connections"`
	Sizes      sizes     `json:"sizes"`
	Started    time.Time `json:"started"`
}

// outcome collects what one run measured.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	samples           map[string]int
	info              map[string]float64
	violations        []string
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, samples: map[string]int{}, info: map[string]float64{}}
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) timing(name string, v float64, samples int) {
	o.values[name] = v
	o.samples[name] = samples
}

func (o *outcome) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

// check records a violation unless ok.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.violate(format, args...)
	}
}

// result selects defs from what was measured. A missing metric is a bug
// in the benchmark, never a zero.
func (o *outcome) result(defs []metricDef) (Result, error) {
	r := Result{
		Correct:   o.failed == 0 && len(o.violations) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]Metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	return r, nil
}

// runOne runs one workload, untraced or traced, in a scratch directory
// of its own.
func runOne(base env, work string, w workload, seconds float64, traced bool, spans *[]span) (Run, error) {
	started := time.Now()
	e := base
	e.dir = filepath.Join(work, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return Run{}, err
	}
	defer os.RemoveAll(e.dir)

	o := newOutcome()
	defs := endToEnd
	if traced {
		defs = perLayer
		tr, err := tracedPass(&e, w, o)
		if err != nil {
			return Run{}, err
		}
		*spans = append(*spans, tr.spans...)
	} else {
		p, setup, err := setUp(&e, w)
		if err != nil {
			return Run{}, err
		}
		defer p.close()
		o.timing("setup_s", median(setup), len(setup))
		if err := w.measure(&e, p, seconds, o); err != nil {
			return Run{}, err
		}
	}
	res, err := o.result(defs)
	if err != nil {
		return Run{}, err
	}
	return Run{
		Workload: w.name, Trace: traced, Result: res, Samples: o.samples, Info: o.info,
		Violations: o.violations, WallSeconds: time.Since(started).Seconds(),
	}, nil
}

// setUp runs the workload's prepare step and times it. A set-up
// shorter than a second is one process start and a few file writes, whose
// time is mostly jitter: it is repeated, up to seven times or two seconds
// in all, and every timing returned so that the median is reported. A
// long one is dominated by builds, which repeat to within a few percent.
func setUp(e *env, w workload) (*prepared, []float64, error) {
	var times []float64
	for {
		start := time.Now()
		p, err := w.prepare(e, w)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if times[0] >= 1 || len(times) == 7 || sum(times) >= 2 {
			return p, times, nil
		}
		p.close()
	}
}

func printRun(r Run) {
	mode := "end-to-end"
	if r.Trace {
		mode = "per-layer"
	}
	fmt.Printf("== %s (%s): attempted %d, failed %d, correct %v, %.1f s\n",
		r.Workload, mode, r.Attempted, r.Failed, r.Correct, r.WallSeconds)
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		line := fmt.Sprintf("  %-28s %14.6g %s", name, m.Value, m.Unit)
		if n, ok := r.Samples[name]; ok {
			line += fmt.Sprintf("  (%d samples)", n)
		}
		fmt.Println(line)
	}
	for _, name := range sortedKeys(r.Info) {
		fmt.Printf("  info %-23s %14.6g\n", name, r.Info[name])
	}
	for _, v := range r.Violations {
		fmt.Println("  VIOLATION:", v)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var (
		bin      = flag.String("bin", ".bench_build/bin", "directory holding corpusgen, probase-build and probase-serve")
		work     = flag.String("work", ".bench_build/work", "scratch directory for generated inputs")
		name     = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 11, "seed of the page scores and request plans")
		seconds  = flag.Float64("seconds", 6, "length of the measured part of a run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics from the real binaries; 1: per-layer metrics from the traced pass")
		smoke    = flag.Bool("smoke", false, "toy sizes: every workload untraced, then traced, in well under a minute")
		out      = flag.String("out", "", "write the report of every run to this file")
		spansOut = flag.String("spans", "", "write the traced pass's spans to this file (default <work>/spans.json)")
	)
	flag.Parse()
	if err := run(*bin, *work, *name, *seed, *seconds, *trace == 1, *smoke, *out, *spansOut); err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
}

func run(bin, work, name string, seed int64, seconds float64, traced, smoke bool, out, spansOut string) error {
	bin, err := filepath.Abs(bin)
	if err != nil {
		return err
	}
	e := env{bin: bin, seed: seed, sizes: fullSizes}
	modes := []bool{traced}
	if smoke {
		e.sizes, seconds, modes = smokeSizes, 0.5, []bool{false, true}
	}
	var selected []workload
	for _, w := range workloads {
		if name == "all" || name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	report := Report{Env: Env{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: obs.Version().Revision, Seed: seed, Seconds: seconds, Smoke: smoke, Conns: conns,
		Sizes: e.sizes, Started: time.Now().UTC(),
	}}
	var spans []span
	var last Result
	for _, mode := range modes {
		for _, w := range selected {
			r, err := runOne(e, work, w, seconds, mode, &spans)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			printRun(r)
			report.Runs = append(report.Runs, r)
			last = r.Result
		}
	}
	if len(spans) > 0 {
		if spansOut == "" {
			spansOut = filepath.Join(work, "spans.json")
		}
		if err := writeJSON(spansOut, spans); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", len(spans), spansOut)
	}
	if out != "" {
		if err := writeJSON(out, report); err != nil {
			return err
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	for _, r := range report.Runs {
		if !r.Correct {
			return fmt.Errorf("%s: %d failed operations, %d violated checks", r.Workload, r.Failed, len(r.Violations))
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

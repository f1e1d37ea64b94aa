package main

import (
	"bytes"
	"fmt"
	"net/http"
	"time"

	"repro/internal/snapshot"
)

// prepared is what a workload's set-up leaves for its measurement.
type prepared struct {
	buildArgs []string // build workloads: arguments of the measured build, without -o
	wantFP    string   // build-delta: fingerprint of the full build over base + delta
	snapshot  string   // serve workloads: the snapshot file served
	plan      *plan
	first     int // index into plan.pool of the request a cold start must answer
	srv       *serverProc
	release   func() // lifts the one-CPU confinement of a serve workload
}

func (p *prepared) close() {
	if p.srv != nil {
		p.srv.stop()
		p.srv = nil
	}
	if p.release != nil {
		p.release()
		p.release = nil
	}
}

// prepareBuild generates the workload's corpus.
func prepareBuild(e *env, w workload) (*prepared, error) {
	spec := w.corpus(e.sizes)
	lines, err := e.genCorpus(spec, 0)
	if err != nil {
		return nil, err
	}
	if err := writeLines(e.path("corpus.tsv"), lines); err != nil {
		return nil, err
	}
	return &prepared{buildArgs: []string{"-corpus", e.path("corpus.tsv"), "-scale", spec.scaleArg()}}, nil
}

// prepareDelta generates base + delta, builds the -full base snapshot a
// delta build extends, and builds the reference: one full build over
// base + delta, whose fingerprint every delta build must reproduce.
func prepareDelta(e *env, w workload) (*prepared, error) {
	spec := w.corpus(e.sizes)
	lines, err := e.genCorpus(spec, e.sizes.DeltaSentences)
	if err != nil {
		return nil, err
	}
	for name, part := range map[string][]string{
		"base.tsv": lines[:spec.Sentences], "delta.tsv": lines[spec.Sentences:], "full.tsv": lines,
	} {
		if err := writeLines(e.path(name), part); err != nil {
			return nil, err
		}
	}
	scale := spec.scaleArg()
	if _, err := e.build("-corpus", e.path("base.tsv"), "-scale", scale, "-full", "-o", e.path("base.pbfl")); err != nil {
		return nil, err
	}
	if _, err := e.build("-corpus", e.path("full.tsv"), "-scale", scale, "-o", e.path("ref.bin")); err != nil {
		return nil, err
	}
	want, err := fingerprint(e.path("ref.bin"))
	if err != nil {
		return nil, err
	}
	return &prepared{wantFP: want,
		buildArgs: []string{"-base", e.path("base.pbfl"), "-corpus", e.path("delta.tsv"), "-scale", scale}}, nil
}

// repeat runs op back to back until seconds have passed and at least
// atLeast operations are done, and returns each one's duration in seconds.
func repeat(seconds float64, atLeast int, op func(i int) (time.Duration, error)) ([]float64, error) {
	var durs []float64
	start := time.Now()
	for i := 0; i < atLeast || time.Since(start).Seconds() < seconds; i++ {
		d, err := op(i)
		if err != nil {
			return nil, err
		}
		durs = append(durs, d.Seconds())
	}
	return durs, nil
}

// measureBuild times probase-build children, exec to exit, one after
// the other. Every output must carry the same fingerprint — the
// reference's for a delta build, the first repeat's otherwise. A build
// that exits non-zero ends the run: later repeats would fail the same way.
func measureBuild(e *env, p *prepared, seconds float64, o *outcome) error {
	outPath := func(i int) string { return e.path(fmt.Sprintf("out-%d.bin", i)) }
	var rss []float64
	durs, err := repeat(seconds, e.sizes.MinRepeats, func(i int) (time.Duration, error) {
		run, err := e.build(append(p.buildArgs, "-o", outPath(i))...)
		rss = append(rss, run.maxRSSMB)
		return run.wall, err
	})
	if err != nil {
		return err
	}
	want := p.wantFP
	for i := range durs {
		got, err := fingerprint(outPath(i))
		if err != nil {
			return err
		}
		if want == "" {
			want = got
		}
		o.attempted++
		if got != want {
			o.failed++
			o.violate("build %d: fingerprint %s, want %s", i, got, want)
		}
	}
	// The best repeat, as a serve run reports its best window (see
	// windowStats): other tenants of the host only ever add time.
	best := durs[0]
	for _, d := range durs {
		best = min(best, d)
	}
	o.timing("op_p50_ms", best*1e3, len(durs))
	o.timing("ops_per_s", 1/best, len(durs))
	o.info["build_wall_s"] = best
	o.info["build_wall_median_s"] = median(durs)
	o.info["peak_rss_mb"] = median(rss)
	return nil
}

// prepareSnapshot generates the corpus, builds the snapshot the serve
// workloads share and plans the requests.
func prepareSnapshot(e *env, w workload) (*prepared, error) {
	p, err := prepareBuild(e, w)
	if err != nil {
		return nil, err
	}
	p.snapshot = e.path("serve.bin")
	if _, err := e.build(append(p.buildArgs, "-o", p.snapshot)...); err != nil {
		return nil, err
	}
	return p, p.planRequests(e, w)
}

// planRequests opens p.snapshot on the heap, draws w's request plan from
// it and computes the expected answers.
func (p *prepared) planRequests(e *env, w workload) error {
	pb, err := snapshot.Open(p.snapshot)
	if err != nil {
		return err
	}
	size := e.sizes.HotPool
	if w.cold {
		size = e.sizes.ColdPool
	}
	if p.plan, err = buildPlan(pb, w.cold, e.seed, size); err != nil {
		return err
	}
	if err := p.plan.fillExpected(pb); err != nil {
		return err
	}
	for i, r := range p.plan.pool {
		if r.endpoint == "instances" && p.plan.expected[i] != nil {
			p.first = i
			break
		}
	}
	return nil
}

// warm requests every pool entry once, so that a hot plan's run starts
// with its working set in the response cache.
func (p *prepared) warm() error {
	c := newClient()
	for i := range p.plan.pool {
		if _, ok := p.plan.get(c, "http://"+p.srv.addr, i, 0); !ok {
			return fmt.Errorf("warming %s: wrong answer", p.plan.pool[i].uri)
		}
	}
	return nil
}

// coldStart execs probase-serve and returns the time from exec to the
// first correct answer on /v1/instances.
func (e *env) coldStart(p *prepared) (*serverProc, time.Duration, error) {
	srv, err := e.startServer(p.snapshot)
	if err != nil {
		return nil, 0, err
	}
	status, body, err := do(newClient(), http.MethodGet, "http://"+srv.addr+p.plan.pool[p.first].uri)
	lat := time.Since(srv.started)
	if err != nil || status != http.StatusOK || !bytes.Equal(body, p.plan.expected[p.first]) {
		srv.stop()
		return nil, 0, fmt.Errorf("first answer after a cold start: status %d, err %v, body %.80q", status, err, body)
	}
	return srv, lat, nil
}

// prepareServe adds a running server to prepareSnapshot. The snapshot is
// built on every CPU; server and generator then share one (see oneCPU).
func prepareServe(e *env, w workload) (*prepared, error) {
	p, err := prepareSnapshot(e, w)
	if err != nil {
		return nil, err
	}
	p.release = oneCPU()
	if p.srv, _, err = e.coldStart(p); err != nil {
		p.close()
		return nil, err
	}
	if !w.cold {
		if err := p.warm(); err != nil {
			p.close()
			return nil, err
		}
	}
	return p, nil
}

// windowLength splits seconds into the run's measurement windows.
func (e *env) windowLength(seconds float64) time.Duration {
	return time.Duration(seconds / float64(e.sizes.Windows) * float64(time.Second))
}

func (e *env) warmup() time.Duration {
	return time.Duration(e.sizes.WarmupSeconds * float64(time.Second))
}

// requestNumbers names a traffic run's request-side numbers: an
// untraced run prints them for information, the traced pass reports
// them as per-layer metrics.
func requestNumbers(t traffic, s windowStats) map[string]float64 {
	n := map[string]float64{
		"throughput_rps":             s.perSec,
		"latency_p50_us":             s.p50ms * 1e3,
		"latency_p99_us":             s.p99us,
		"p999_us":                    s.p999us,
		"max_us":                     s.maxUS,
		"latency_within_limit_ratio": s.withinLimit,
		"requests":                   float64(s.attempted),
		"supported_tail":             supportedTail(s.samples / len(t.windows)),
		"server.cache_hit_ratio":     t.hitRatio,
		"server.rss_mb":              t.rssMB,
		"loadgen.window_spread":      s.spread,
	}
	if s.samples > 0 {
		n["server.cpu_us_per_req"] = float64(t.serverCPU.Microseconds()) / float64(s.samples)
		n["loadgen.cpu_us_per_req"] = float64(t.selfCPU.Microseconds()) / float64(s.samples)
	}
	return n
}

func (o *outcome) addInfo(numbers map[string]float64) {
	for name, v := range numbers {
		o.info[name] = v
	}
}

// measureServe runs the plan over two closed-loop connections. The hot
// plan must be answered from the response cache and the cold plan must
// not be, or the workload no longer isolates the layers it names.
func measureServe(e *env, p *prepared, seconds float64, o *outcome) error {
	t, _ := runTraffic(p.srv, p.plan, e.warmup(), e.windowLength(seconds), e.sizes.Windows, nil)
	s := summarize(t.windows, conns)
	o.attempted, o.failed = s.attempted, s.failed
	o.timing("op_p50_ms", s.p50ms, s.samples)
	o.timing("ops_per_s", s.perSec, s.samples)
	o.addInfo(requestNumbers(t, s))
	if p.plan.cold {
		o.check(t.hitRatio <= 0.05, "cold plan hit the response cache: ratio %.3f > 0.05", t.hitRatio)
	} else {
		o.check(t.hitRatio >= 0.95, "hot plan missed the response cache: ratio %.3f < 0.95", t.hitRatio)
	}
	return nil
}

// reload posts one hot reload and checks that the new snapshot is
// served out of a mapping.
func reload(c *http.Client, base string) (time.Duration, bool) {
	start := time.Now()
	status, body, err := do(c, http.MethodPost, base+"/v1/admin/reload")
	return time.Since(start), err == nil && status == http.StatusOK &&
		bytes.Contains(body, []byte(`"snapshot_mapped":true`))
}

// measureReload runs the hot plan on one connection while the other
// posts reloads back to back; the operation measured is the reload.
// Back to back, not once a second: a ten-second run needs more than ten
// samples for a steady median, and every reload purges the response
// cache and drops the lazy typicality tables, so the requests beside it
// are served cold after each swap — reads beside writes at their worst.
func measureReload(e *env, p *prepared, seconds float64, o *outcome) error {
	base := "http://" + p.srv.addr
	t, reloads := runTraffic(p.srv, p.plan, e.warmup(), e.windowLength(seconds), e.sizes.Windows,
		func(c *http.Client, _ int) (time.Duration, bool) { return reload(c, base) })
	rs, qs := summarize(reloads, 1), summarize(t.windows, conns-1)
	o.attempted, o.failed = rs.attempted+qs.attempted, rs.failed+qs.failed
	o.check(qs.failed == 0, "%d of %d requests failed beside the reloads", qs.failed, qs.attempted)
	o.timing("op_p50_ms", rs.p50ms, rs.samples)
	o.timing("ops_per_s", rs.perSec, rs.samples)
	o.info["reload_ms"] = rs.p50ms
	o.info["reload_max_ms"] = rs.maxUS / 1e3
	o.addInfo(requestNumbers(t, qs))
	return nil
}

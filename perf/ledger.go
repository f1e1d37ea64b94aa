package main

import (
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/extraction"
	"repro/internal/graph"
	"repro/internal/mmap"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/taxstats"
)

// perLayer lists the traced pass's metrics. Every workload reports all
// of them: the pass is the same ledger — full build, delta build, open,
// request ladder, and a short run of the real binaries for the numbers
// only a process has — run on the workload's own corpus and plan.
var perLayer = []metricDef{
	// Full build, in-process, stages from core.Config.Reporter.
	{"corpus.read_s", "s"}, {"corpus.world_s", "s"},
	{"extraction.run_s", "s"}, {"extraction.rounds", "count"},
	{"extraction.sentences_parsed", "count"}, {"extraction.pairs", "count"},
	{"taxonomy.build_s", "s"}, {"taxonomy.horizontal_s", "s"}, {"taxonomy.vertical_s", "s"},
	{"taxonomy.assemble_s", "s"}, {"taxonomy.senses", "count"},
	{"prob.train_s", "s"}, {"prob.annotate_s", "s"}, {"prob.alg3_s", "s"},
	{"snapshot.save_s", "s"}, {"snapshot.bytes", "bytes"}, {"graph.nodes", "count"}, {"graph.edges", "count"},
	// One probase-build child over the same corpus.
	{"build_wall_s", "s"}, {"build.residual_s", "s"}, {"build.peak_rss_mb", "MB"}, {"trace.overhead_ratio", "ratio"},
	// Delta build over the -full snapshot of the build above.
	{"core.load_full_s", "s"}, {"extraction.resume_s", "s"}, {"taxonomy.delta_s", "s"}, {"prob.train_delta_s", "s"},
	{"delta.dirty_roots", "count"}, {"delta.dirty_labels", "count"}, {"delta.reused_labels", "count"},
	{"delta.dirty_pairs", "count"}, {"delta.dirty_seeds", "count"},
	{"delta.reuse_ratio", "ratio"}, {"delta.vs_full_ratio", "ratio"},
	// Open ladder.
	{"mmap.open_us", "us"}, {"graph.load_mapped_ms", "ms"}, {"core.from_frozen_ms", "ms"},
	{"core.heap_after_open_mb", "MB"}, {"prob.cold_fill_us", "us"},
	{"taxstats.compute_ms", "ms"}, {"server.new_ms", "ms"}, {"server.swap_ms", "ms"},
	{"first_answer_ms", "ms"}, {"serve.process_start_ms", "ms"}, {"reload_ms", "ms"},
	// Request ladder, in-process, one goroutine.
	{"core.query_us", "us"}, {"core.query_p50_us", "us"},
	{"server.cache_get_ns", "ns"}, {"server.cache_put_ns", "ns"},
	{"server.handler_us", "us"}, {"server.handler_allocs", "count"}, {"server.handler_bytes", "bytes"},
	{"server.wrap_overhead_us", "us"},
	{"obs.middleware_us", "us"}, {"obs.middleware_allocs", "count"},
	{"nethttp.loopback_us", "us"},
	// A short closed-loop run against the real server.
	{"throughput_rps", "1/s"}, {"latency_p50_us", "us"}, {"latency_p99_us", "us"},
	{"p999_us", "us"}, {"max_us", "us"}, {"latency_within_limit_ratio", "ratio"},
	{"server.cache_hit_ratio", "ratio"}, {"server.cpu_us_per_req", "us"}, {"server.rss_mb", "MB"},
	{"loadgen.cpu_us_per_req", "us"}, {"loadgen.window_spread", "ratio"},
}

func millis(d time.Duration) float64 { return float64(d) / 1e6 }
func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// tracedPass measures every layer on w's corpus and plan.
func tracedPass(e *env, w workload, o *outcome) (*tracer, error) {
	spec := w.corpus(e.sizes)
	lines, err := e.genCorpus(spec, e.sizes.DeltaSentences)
	if err != nil {
		return nil, err
	}
	if err := writeLines(e.path("base.tsv"), lines[:spec.Sentences]); err != nil {
		return nil, err
	}
	if err := writeLines(e.path("delta.tsv"), lines[spec.Sentences:]); err != nil {
		return nil, err
	}
	tr := newTracer(w.name)
	if err := ledgerBuild(e, tr, w, o); err != nil {
		return nil, err
	}
	// Everything about serving is measured on one CPU, as the serve
	// workloads are (see oneCPU).
	defer oneCPU()()
	for _, step := range []func(*env, *tracer, workload, *outcome) error{ledgerOpen, ledgerRequests, ledgerProcess} {
		if err := step(e, tr, w, o); err != nil {
			return nil, err
		}
	}
	tr.checkNesting(o)
	return tr, nil
}

func readInputs(path string) ([]extraction.Input, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sentences, err := corpus.ReadSentences(f)
	if err != nil {
		return nil, err
	}
	inputs := make([]extraction.Input, len(sentences))
	for i, s := range sentences {
		inputs[i] = extraction.Input{Text: s.Text, PageScore: s.PageScore}
	}
	return inputs, nil
}

func saveTo(path string, save func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ledgerBuild makes probase-build's calls from here with a span around
// each — a full build, then a delta build over its -full snapshot —
// and runs the real binary once over the same corpus. What the child's
// wall time holds beyond the spans (process start, runtime, the GC's
// different luck) is build.residual_s.
func ledgerBuild(e *env, tr *tracer, w workload, o *outcome) error {
	spec := w.corpus(e.sizes)
	var (
		cfg    core.Config
		inputs []extraction.Input
		pb     *core.Probase
		err    error
	)
	root := tr.begin("build")
	if _, err = tr.do("corpus.read", func() error {
		inputs, err = readInputs(e.path("base.tsv"))
		return err
	}); err != nil {
		return err
	}
	tr.do("corpus.world", func() error {
		world := corpus.DefaultWorld(spec.Scale)
		cfg = core.Config{Reporter: tr, Oracle: func(x, y string) (bool, bool) {
			if !world.KnownTerm(x) || !world.KnownTerm(y) {
				return false, false
			}
			return world.IsTrueIsA(x, y), true
		}}
		return nil
	})
	if _, err = tr.do("core.build", func() error {
		pb, err = core.Build(inputs, cfg)
		return err
	}); err != nil {
		return err
	}
	if _, err = tr.do("snapshot.save", func() error { return saveTo(e.path("traced.bin"), pb.Save) }); err != nil {
		return err
	}
	full := tr.end(root)

	for name, stage := range map[string]string{
		"corpus.read_s": "corpus.read", "corpus.world_s": "corpus.world",
		"extraction.run_s": obs.StageExtraction, "taxonomy.build_s": obs.StageTaxonomy,
		"taxonomy.horizontal_s": obs.StageTaxonomyHorizontal, "taxonomy.vertical_s": obs.StageTaxonomyVertical,
		"taxonomy.assemble_s": obs.StageTaxonomyAssemble, "prob.train_s": obs.StageProbTrain,
		"prob.annotate_s": obs.StageProbAnnotate, "prob.alg3_s": obs.StageProbAlgorithm3,
		"snapshot.save_s": "snapshot.save",
	} {
		o.set(name, tr.under(root, stage).Seconds())
	}
	o.set("extraction.rounds", float64(len(pb.Info.Rounds)))
	o.set("extraction.sentences_parsed", float64(pb.Info.Parsed))
	o.set("extraction.pairs", float64(pb.Store.Stats().Pairs))
	o.set("taxonomy.senses", float64(tr.counters[obs.StageTaxonomy+"/senses"]))
	o.set("graph.nodes", float64(pb.Graph.NumNodes()))
	o.set("graph.edges", float64(pb.Graph.NumEdges()))
	if fi, err := os.Stat(e.path("traced.bin")); err == nil {
		o.set("snapshot.bytes", float64(fi.Size()))
	}

	// The real binary over the same corpus: its output must be the
	// snapshot built here, and its wall time is the parent of the ladder.
	child, err := e.build("-corpus", e.path("base.tsv"), "-scale", spec.scaleArg(), "-o", e.path("serve.bin"))
	if err != nil {
		return err
	}
	got, err := fingerprint(e.path("serve.bin"))
	if err != nil {
		return err
	}
	o.attempted++
	if want := taxstats.Fingerprint(pb.Graph); got != want {
		o.failed++
		o.violate("probase-build wrote fingerprint %s, the same calls in-process %s", got, want)
	}
	explained := full - tr.selfTime(root)
	o.set("build_wall_s", child.wall.Seconds())
	o.set("build.residual_s", (child.wall - explained).Seconds())
	o.set("build.peak_rss_mb", child.maxRSSMB)
	o.set("trace.overhead_ratio", full.Seconds()/child.wall.Seconds())

	// Delta: what probase-build -base does, over the -full snapshot of pb.
	var base, dpb *core.Probase
	droot := tr.begin("delta")
	if _, err = tr.do("snapshot.save_full", func() error { return saveTo(e.path("base.pbfl"), pb.SaveFull) }); err != nil {
		return err
	}
	if _, err = tr.do("core.load_full", func() error {
		f, err := os.Open(e.path("base.pbfl"))
		if err != nil {
			return err
		}
		defer f.Close()
		base, err = core.LoadFull(f)
		return err
	}); err != nil {
		return err
	}
	if inputs, err = readInputs(e.path("delta.tsv")); err != nil {
		return err
	}
	build := tr.begin("core.delta_build")
	if dpb, err = core.DeltaBuild(base, inputs, cfg); err != nil {
		return err
	}
	delta := tr.end(build)
	tr.end(droot)
	load := tr.under(droot, "core.load_full")
	o.set("core.load_full_s", load.Seconds())
	o.set("extraction.resume_s", tr.under(build, obs.StageExtraction).Seconds())
	o.set("taxonomy.delta_s", tr.under(build, obs.StageTaxonomy).Seconds())
	o.set("prob.train_delta_s", tr.under(build, obs.StageProbTrain).Seconds())
	d := dpb.Info.Delta
	o.set("delta.dirty_roots", float64(d.DirtyRoots))
	o.set("delta.dirty_labels", float64(d.DirtyLabels))
	o.set("delta.reused_labels", float64(d.ReusedLabels))
	o.set("delta.dirty_pairs", float64(d.DirtyPairs))
	o.set("delta.dirty_seeds", float64(d.DirtySeeds))
	o.set("delta.reuse_ratio", float64(d.ReusedLabels)/float64(d.DirtyLabels+d.ReusedLabels))
	o.set("delta.vs_full_ratio", (load+delta).Seconds()/tr.under(root, "core.build").Seconds())
	o.check(!d.FullBuild, "core.DeltaBuild fell back to a full build")
	return nil
}

// serveConfig is the server.Config probase-serve's defaults produce.
func serveConfig(path string) server.Config {
	return server.Config{Reloader: func() (*core.Probase, error) { return snapshot.OpenMapped(path) }}
}

// ledgerOpen makes snapshot.OpenMapped's and server.New's calls one by
// one, several times over, on the file probase-build wrote.
func ledgerOpen(e *env, tr *tracer, w workload, o *outcome) error {
	path := e.path("serve.bin")
	rungs := map[string][]float64{}
	var heap, fill []float64
	for i := 0; i < e.sizes.OpenRepeats; i++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var (
			m   *mmap.Mapping
			g   *graph.Frozen
			pb  *core.Probase
			err error
		)
		root := tr.begin("open")
		timed := func(name string, f func() error) error {
			d, err := tr.do(name, f)
			rungs[name] = append(rungs[name], float64(d))
			return err
		}
		if err = timed("mmap.open", func() error { m, err = mmap.Open(path); return err }); err != nil {
			return err
		}
		if err = timed("graph.load_mapped", func() error { g, err = graph.LoadMapped(m.Bytes(), m); return err }); err != nil {
			return err
		}
		if err = timed("core.from_frozen", func() error { pb, err = core.FromFrozen(g); return err }); err != nil {
			return err
		}
		tr.end(root)
		runtime.GC()
		runtime.ReadMemStats(&after)
		heap = append(heap, (float64(after.HeapAlloc)-float64(before.HeapAlloc))/(1<<20))

		// The lazy typicality tables: the first InstancesOf of a concept
		// after an open fills its table, the second reads it.
		v, err := newVocab(pb)
		if err != nil {
			return err
		}
		for c := 0; c < len(v.concepts); c += 1 + len(v.concepts)/64 {
			first := time.Now()
			pb.InstancesOf(v.concepts[c], 10)
			second := time.Now()
			pb.InstancesOf(v.concepts[c], 10)
			fill = append(fill, micros(second.Sub(first)-time.Since(second)))
		}

		if err := timed("taxstats.compute", func() error {
			_, err := taxstats.Compute(pb.Graph, pb.Typicality(), taxstats.Options{})
			return err
		}); err != nil {
			return err
		}
		var srv *server.Server
		timed("server.new", func() error { srv = server.New(pb, serveConfig(path)); return nil })
		next, err := snapshot.OpenMapped(path)
		if err != nil {
			return err
		}
		if err := timed("server.swap", func() error { return srv.Swap(next) }); err != nil {
			return err
		}
		next.Close()
	}
	med := func(name string) time.Duration { return time.Duration(median(rungs[name])) }
	o.timing("mmap.open_us", micros(med("mmap.open")), e.sizes.OpenRepeats)
	o.timing("graph.load_mapped_ms", millis(med("graph.load_mapped")), e.sizes.OpenRepeats)
	o.timing("core.from_frozen_ms", millis(med("core.from_frozen")), e.sizes.OpenRepeats)
	o.timing("taxstats.compute_ms", millis(med("taxstats.compute")), e.sizes.OpenRepeats)
	o.timing("server.new_ms", millis(med("server.new")), e.sizes.OpenRepeats)
	o.timing("server.swap_ms", millis(med("server.swap")), e.sizes.OpenRepeats)
	o.set("core.heap_after_open_mb", median(heap))
	o.timing("prob.cold_fill_us", sum(fill)/float64(len(fill)), len(fill))
	return nil
}

// allocs reads the process's cumulative heap allocation counters.
func allocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// rung is one pass of the request ladder.
type rung struct {
	lat            []float64 // per request, ns
	objects, bytes float64   // allocated per request inside the timed call
}

func (r rung) mean() float64 { return sum(r.lat) / float64(len(r.lat)) }

// climb times call for n requests of the plan's stream. prep builds
// what the call needs outside the timed interval.
func climb[T any](tr *tracer, name string, n int, next func() int, prep func(idx int) T, call func(T)) rung {
	id := tr.begin(name)
	r := rung{lat: make([]float64, n)}
	var objects, bytes uint64
	for i := 0; i < n; i++ {
		arg := prep(next())
		o0, b0 := allocs()
		start := time.Now()
		call(arg)
		r.lat[i] = float64(time.Since(start))
		o1, b1 := allocs()
		objects += o1 - o0
		bytes += b1 - b0
	}
	r.objects, r.bytes = float64(objects)/float64(n), float64(bytes)/float64(n)
	tr.endN(id, n)
	return r
}

// ledgerRequests answers the plan's requests in-process, one goroutine,
// one rung at a time: the engine alone, the response cache alone, the
// server's handler, the obs middleware around it as probase-serve wires
// it, and an http.Server on a loopback socket around that. Each rung's
// cost is its mean minus the rung's below.
func ledgerRequests(e *env, tr *tracer, w workload, o *outcome) error {
	path := e.path("serve.bin")
	pb, err := snapshot.OpenMapped(path)
	if err != nil {
		return err
	}
	size := e.sizes.HotPool
	if w.cold {
		size = e.sizes.ColdPool
	}
	p, err := buildPlan(pb, w.cold, e.seed, size)
	if err != nil {
		return err
	}
	n := e.sizes.LadderRequests
	root := tr.begin("requests")
	defer tr.end(root)

	srv := server.New(pb, serveConfig(path))
	handler := obs.Middleware(srv.Handler(), obs.MiddlewareConfig{Logger: obs.NewLogger(io.Discard, "text", slog.LevelInfo)})
	cache := server.NewCache(16, 512)

	// Steady state first: a hot pool fully cached; for a cold plan the
	// cache full of entries the stream will not ask for before they are
	// evicted (the pool's tail — the stream starts at its head).
	warm := p.pool
	if w.cold && len(warm) > 8192 {
		warm = warm[len(warm)-8192:]
	}
	bodyBytes := 0
	for _, r := range warm {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, r.uri, nil))
		bodyBytes += rec.Body.Len()
	}

	next := p.stream(0, 1)
	newReq := func(idx int) *http.Request { return httptest.NewRequest(http.MethodGet, p.pool[idx].uri, nil) }
	serve := func(h http.Handler) func(*http.Request) {
		return func(r *http.Request) { h.ServeHTTP(httptest.NewRecorder(), r) }
	}
	engine := climb(tr, "core.query", n, next, func(idx int) request { return p.pool[idx] },
		func(r request) { query(pb, r) })
	handle := climb(tr, "server.handler", n, next, newReq, serve(srv))
	middle := climb(tr, "obs.middleware", n, next, newReq, serve(handler))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: handler}
	done := make(chan struct{})
	go func() { hs.Serve(ln); close(done) }()
	client, base := newClient(), "http://"+ln.Addr().String()
	socket := climb(tr, "nethttp.loopback", n, next, func(idx int) string { return base + p.pool[idx].uri },
		func(url string) { do(client, http.MethodGet, url) })
	hs.Close()
	<-done

	// The cache alone, fed the plan's keys and a body of the mean size
	// the handler wrote: warmed like the server's, then the same stream.
	body := make([]byte, bodyBytes/len(warm))
	var gets, puts, nputs float64
	lookup := func(uri string) {
		start := time.Now()
		_, hit := cache.Get(uri)
		got := time.Now()
		gets += float64(got.Sub(start))
		if !hit {
			cache.Put(uri, body)
			puts += float64(time.Since(got))
			nputs++
		}
	}
	id := tr.begin("server.cache")
	for _, r := range warm {
		lookup(r.uri)
	}
	gets = 0
	warmPuts := puts
	next = p.stream(0, 1)
	for i := 0; i < n; i++ {
		lookup(p.pool[next()].uri)
	}
	tr.endN(id, n)
	cachePerReq := (gets + puts - warmPuts) / float64(n)

	o.timing("core.query_us", engine.mean()/1e3, n)
	o.timing("core.query_p50_us", median(engine.lat)/1e3, n)
	o.timing("server.cache_get_ns", gets/float64(n), n)
	o.timing("server.cache_put_ns", puts/nputs, int(nputs))
	o.timing("server.handler_us", handle.mean()/1e3, n)
	o.set("server.handler_allocs", handle.objects)
	o.set("server.handler_bytes", handle.bytes)
	o.set("server.wrap_overhead_us", (handle.mean()-engineShare(w, engine.mean())-cachePerReq)/1e3)
	o.timing("obs.middleware_us", (middle.mean()-handle.mean())/1e3, n)
	o.set("obs.middleware_allocs", middle.objects-handle.objects)
	o.timing("nethttp.loopback_us", (socket.mean()-middle.mean())/1e3, n)

	// Each rung wraps the one below, so it cannot be cheaper. Medians:
	// a mean carries the odd GC pause of whichever rung it landed in.
	mid := func(r rung) float64 { return median(r.lat) }
	if w.cold {
		atMost(o, mid(engine), mid(handle), 0, "rung core.query above server.handler")
	}
	atMost(o, mid(handle), mid(middle), 0, "rung server.handler above obs.middleware")
	atMost(o, mid(middle), mid(socket), 0, "rung obs.middleware above nethttp.loopback")
	return nil
}

// engineShare is the engine time inside a handler call: all of it on a
// cold plan, none on a hot one, whose answers come out of the cache.
func engineShare(w workload, engine float64) float64 {
	if w.cold {
		return engine
	}
	return 0
}

// ledgerProcess takes the numbers only a process has: cold starts of
// the real server, a short closed-loop run of the plan against it, and
// reloads of an idle server. It then closes the open ladder's sums.
func ledgerProcess(e *env, tr *tracer, w workload, o *outcome) error {
	p := &prepared{snapshot: e.path("serve.bin")}
	if err := p.planRequests(e, w); err != nil {
		return err
	}
	var starts []float64
	for i := 0; i < e.sizes.OpenRepeats; i++ {
		id := tr.begin("first_answer")
		srv, lat, err := e.coldStart(p)
		if err != nil {
			return err
		}
		tr.end(id)
		starts = append(starts, millis(lat))
		p.close()
		p.srv = srv
	}
	defer p.close()
	if !w.cold {
		if err := p.warm(); err != nil {
			return err
		}
	}
	id := tr.begin("traffic")
	t, _ := runTraffic(p.srv, p.plan, e.warmup(), e.windowLength(e.sizes.TracedSeconds), e.sizes.Windows, nil)
	s := summarize(t.windows, conns)
	tr.endN(id, s.attempted)
	o.attempted += s.attempted
	o.failed += s.failed
	for name, v := range requestNumbers(t, s) {
		o.timing(name, v, s.samples)
	}

	var reloads []float64
	client := newClient()
	for i := 0; i < e.sizes.OpenRepeats; i++ {
		id := tr.begin("reload")
		lat, ok := reload(client, "http://"+p.srv.addr)
		tr.end(id)
		o.attempted++
		if !ok {
			o.failed++
		}
		reloads = append(reloads, millis(lat))
	}

	first, reloaded := median(starts), median(reloads)
	open := o.values["mmap.open_us"]/1e3 + o.values["graph.load_mapped_ms"] + o.values["core.from_frozen_ms"]
	o.timing("first_answer_ms", first, len(starts))
	o.timing("reload_ms", reloaded, len(reloads))
	o.set("serve.process_start_ms", first-open-o.values["server.new_ms"])
	const slackMS = 5
	atMost(o, open+o.values["server.swap_ms"], reloaded, slackMS, "open ladder (map, load, Algorithm 3, swap) above reload_ms")
	atMost(o, open+o.values["server.new_ms"], first, slackMS, "open ladder (map, load, Algorithm 3, server.New) above first_answer_ms")
	return nil
}

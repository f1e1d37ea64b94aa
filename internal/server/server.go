// Package server exposes a built Probase taxonomy as a concurrent HTTP
// query service — the serving shape of the paper's Section 5.3
// applications (semantic search, short-text conceptualisation, table
// understanding all sit on these primitives).
//
// The snapshot is loaded once; every request is answered from memory.
// In front of the engine sits a sharded LRU cache for hot queries and
// a metrics layer (per-endpoint request/error/cache counters and
// latency histograms, plus process and cache-occupancy gauges) exposed
// as the Prometheus text exposition on /metrics.
//
// # Endpoint contract
//
// All endpoints are GET (conceptualize also accepts POST form data),
// return "application/json", and echo their effective parameters.
// Errors are {"error": "..."} with a 4xx/5xx status. The X-Cache
// response header reports "hit" or "miss" on cacheable endpoints.
//
//	GET /v1/instances?concept=C&k=10
//	    Top-k typical instances of C by T(i|x).
//	    -> {"concept": C, "k": 10, "results": [{"label": .., "score": ..}]}
//
//	GET /v1/concepts?term=T&k=10
//	    Top-k concepts of T by the abstraction typicality T(x|i).
//	    -> {"term": T, "k": 10, "results": [...]}
//
//	GET /v1/typicality?concept=C&instance=I
//	    Both directed typicality scores for the pair.
//	    -> {"concept": C, "instance": I,
//	        "t_instance_given_concept": .., "t_concept_given_instance": ..}
//
//	GET /v1/plausibility?x=X&y=Y
//	    P(x, y) of the isA claim "Y isA X".
//	    -> {"x": X, "y": Y, "plausibility": ..}
//
//	GET /v1/conceptualize?terms=a,b,c&k=5
//	GET /v1/conceptualize?text=free+text&k=5
//	    Joint conceptualisation of a term set (Section 5.3.2). With
//	    text=, known entity mentions are first extracted with the
//	    fine-grained recogniser from internal/apps. 404 when no term is
//	    known to the taxonomy.
//	    -> {"terms": [...], "k": 5, "results": [...]}
//
//	GET /v1/healthz
//	    Liveness plus snapshot identity: shape counts, the on-disk
//	    format magic (empty for in-memory builds), and the logical
//	    graph fingerprint (identical for heap and mapped loads). Status
//	    is "ok", or "degraded" when the in-server SLO burn-rate engine
//	    has a multi-window error-budget rule firing (reasons explains
//	    which); load balancers use it as a readiness signal.
//	    -> {"status": "ok|degraded", "nodes": .., "edges": ..,
//	        "snapshot_format": "PBC2", "fingerprint": "..",
//	        "uptime_ms": ..}
//
//	GET /v1/admin/stats
//	    The full taxstats health profile of the served snapshot:
//	    structural counts, degree/depth histograms, top concepts, and
//	    plausibility/typicality/entropy score distributions. Computed
//	    once per snapshot (at startup and on every Swap), served from
//	    memory. 503 if the snapshot could not be profiled.
//	    -> {"snapshot_format": .., "uptime_ms": .., "profile": {...}}
//
//	GET /v1/admin/traffic
//	    Live traffic analytics as a probase-traffic/v1 report (the
//	    benchfmt envelope): per-endpoint rolling 1m/5m/30m RED windows
//	    (qps, error rate, cache-hit rate, p50/p90/p99), Space-Saving
//	    heavy-hitter keys per endpoint, and the SLO burn-rate
//	    evaluation behind the healthz status. This is what
//	    cmd/probase-top polls.
//
//	Health and analytics responses (/v1/healthz, /v1/admin/*) carry
//	Cache-Control: no-store so intermediaries never serve them stale.
//
//	GET /metrics
//	    Prometheus text exposition: probase_http_requests_total,
//	    probase_http_errors_total, probase_cache_{hits,misses}_total,
//	    probase_http_request_duration_seconds (histogram),
//	    probase_http_inflight_requests, probase_cache_shard_entries,
//	    probase_cache_purges_total + probase_cache_purged_entries
//	    (snapshot hot-swap purges), probase_slo_burn_rate{window} +
//	    probase_slo_degraded + probase_slo_availability_target (the
//	    burn-rate engine's live verdict), probase_snapshot_* health
//	    gauges (shape counts plus probase_snapshot_score{dist,stat}
//	    distribution stats, refreshed on Swap), probase_process_*
//	    gauges.
//
// Each request runs under a context deadline (Config.RequestTimeout);
// exceeding it aborts the request with 503.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/extraction"
	"repro/internal/obs"
	"repro/internal/prob"
	"repro/internal/taxstats"
	"repro/internal/window"
)

// Config tunes the serving layer. The zero value is usable.
type Config struct {
	// CacheShards is the number of LRU shards (rounded up to a power of
	// two). Default 16.
	CacheShards int
	// CacheEntriesPerShard bounds each shard. Default 512.
	CacheEntriesPerShard int
	// RequestTimeout aborts slow requests. Default 5s.
	RequestTimeout time.Duration
	// MaxK caps the k parameter. Default 1000.
	MaxK int
	// SLO is the availability objective the in-server burn-rate engine
	// evaluates against the live traffic windows (probase_slo_* gauges,
	// the ok|degraded /v1/healthz status). The zero value means
	// window.DefaultSLOConfig. A non-zero config must be valid —
	// binaries load it via window.LoadSLOConfig, which validates; New
	// panics on an invalid one (programmer error, not runtime input).
	SLO window.SLOConfig
	// FailInject, when > 0, fails every Nth query-endpoint request with
	// a synthetic 500 — the CI gate-liveness hook proving an error storm
	// actually flips healthz to degraded. Health and admin endpoints are
	// exempt so the degraded verdict stays observable. Never set this in
	// production.
	FailInject int
	// Now is the clock the traffic analytics rings read. Default
	// time.Now; tests inject a fake for deterministic rotation.
	Now func() time.Time
	// Reloader produces a freshly loaded Probase for POST
	// /v1/admin/reload (and is what probase-serve wires SIGHUP to): the
	// server Swaps the result in with zero dropped requests and releases
	// the old snapshot's resources once its last in-flight request
	// drains. Nil disables the endpoint (501).
	Reloader func() (*core.Probase, error)
}

func (c Config) withDefaults() Config {
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.CacheEntriesPerShard <= 0 {
		c.CacheEntriesPerShard = 512
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.MaxK <= 0 {
		c.MaxK = 1000
	}
	if len(c.SLO.BurnRules) == 0 {
		c.SLO = window.DefaultSLOConfig()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// endpoint names, used for routing and metrics families.
const (
	epInstances     = "instances"
	epConcepts      = "concepts"
	epTypicality    = "typicality"
	epPlausibility  = "plausibility"
	epConceptualize = "conceptualize"
	epHealthz       = "healthz"
	epAdminStats    = "admin_stats"
	epAdminTraffic  = "admin_traffic"
	epAdminReload   = "admin_reload"
)

var allEndpoints = []string{
	epInstances, epConcepts, epTypicality, epPlausibility,
	epConceptualize, epHealthz, epAdminStats, epAdminTraffic,
	epAdminReload,
}

// snapState bundles everything derived from one snapshot — the engine,
// the entity recogniser built over its labels, and the taxstats health
// profile. Swapping snapshots replaces the whole bundle atomically so a
// request never sees the new graph with the old recogniser or profile.
//
// The bundle is a refcounted epoch: refs starts at 1 (the Server's own
// reference) and every request acquires/releases around its handler.
// When the server Swaps the snapshot out it drops its reference; the
// last releaser — server or straggling request — closes the Probase,
// which for a memory-mapped snapshot unmaps the file. A request can
// therefore never touch unmapped memory, and a reload under load drops
// zero requests.
type snapState struct {
	pb      *core.Probase
	rec     *apps.Recognizer
	profile *taxstats.Profile
	refs    atomic.Int64
}

// acquire takes a reference; it fails only when the epoch already hit
// zero (swapped out and fully drained), in which case the caller must
// re-read the current state.
func (st *snapState) acquire() bool {
	for {
		n := st.refs.Load()
		if n <= 0 {
			return false
		}
		if st.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// release drops a reference, closing the snapshot's resources (the mmap
// of a mapped snapshot) when the last one goes.
func (st *snapState) release() {
	if st.refs.Add(-1) == 0 {
		st.pb.Close()
	}
}

// Server answers taxonomy queries over HTTP. Safe for concurrent use;
// construct with New and mount via Handler (or use it directly as an
// http.Handler).
type Server struct {
	snap     atomic.Pointer[snapState]
	cache    *Cache
	metrics  *Metrics
	traffic  *traffic
	cfg      Config
	mux      *http.ServeMux
	start    time.Time
	reqCount atomic.Int64 // drives FailInject's every-Nth selection
}

// New builds a Server around a loaded taxonomy.
func New(pb *core.Probase, cfg Config) *Server {
	cfg = cfg.withDefaults()
	tr, err := newTraffic(allEndpoints, cfg.SLO, cfg.Now)
	if err != nil {
		// Config.SLO is validated where it enters the program
		// (window.LoadSLOConfig); reaching here is a programming error.
		panic("server: invalid Config.SLO: " + err.Error())
	}
	s := &Server{
		cache:   NewCache(cfg.CacheShards, cfg.CacheEntriesPerShard),
		metrics: newMetrics(allEndpoints),
		traffic: tr,
		cfg:     cfg,
		mux:     http.NewServeMux(),
		start:   time.Now(),
	}
	s.snap.Store(newSnapState(pb))
	s.mux.Handle("/v1/instances", s.wrap(epInstances, true, s.handleInstances))
	s.mux.Handle("/v1/concepts", s.wrap(epConcepts, true, s.handleConcepts))
	s.mux.Handle("/v1/typicality", s.wrap(epTypicality, true, s.handleTypicality))
	s.mux.Handle("/v1/plausibility", s.wrap(epPlausibility, true, s.handlePlausibility))
	s.mux.Handle("/v1/conceptualize", s.wrap(epConceptualize, true, s.handleConceptualize))
	s.mux.Handle("/v1/healthz", s.wrap(epHealthz, false, s.handleHealthz))
	s.mux.Handle("/v1/admin/stats", s.wrap(epAdminStats, false, s.handleAdminStats))
	s.mux.Handle("/v1/admin/traffic", s.wrap(epAdminTraffic, false, s.handleAdminTraffic))
	s.mux.Handle("/v1/admin/reload", s.wrap(epAdminReload, false, s.handleAdminReload))
	s.mux.Handle("/metrics", s.metrics.PrometheusHandler())
	s.metrics.observeCache(s.cache)
	// Scrape-time gauges hold a snapshot reference while they read, so a
	// concurrent swap cannot unmap the graph under them.
	s.metrics.observeSnapshot(
		func() int { st := s.acquireState(); defer st.release(); return st.pb.Graph.NumNodes() },
		func() int { st := s.acquireState(); defer st.release(); return st.pb.Graph.NumEdges() },
		func() bool { st := s.acquireState(); defer st.release(); return st.pb.Mapped() })
	s.metrics.observeSLO(tr.engine)
	taxstats.Register(s.metrics.Registry(), s.profile)
	return s
}

// newSnapState derives the per-snapshot bundle. The profile pass can
// only fail on a cyclic graph, which a built or loaded Probase cannot
// be; if it somehow does, the state ships with a nil profile (stats
// gauges read 0, /v1/admin/stats reports 503) rather than refusing to
// serve queries.
func newSnapState(pb *core.Probase) *snapState {
	profile, _ := taxstats.Compute(pb.Graph, pb.Typicality(), taxstats.Options{})
	st := &snapState{pb: pb, rec: apps.NewRecognizer(pb), profile: profile}
	st.refs.Store(1) // the Server's own reference, dropped on Swap
	return st
}

// state returns the current snapshot bundle without taking a reference
// — only for reads that never touch snapshot-backed memory.
func (s *Server) state() *snapState { return s.snap.Load() }

// acquireState returns the current snapshot bundle with a reference
// held; callers must release it. The retry loop covers the narrow race
// where a swap retires the bundle between the load and the acquire.
func (s *Server) acquireState() *snapState {
	for {
		st := s.snap.Load()
		if st.acquire() {
			return st
		}
	}
}

// profile returns the current taxstats health profile (nil only if
// profiling failed). Profiles own all their data (no snapshot-backed
// memory), so no reference is needed to read one.
func (s *Server) profile() *taxstats.Profile { return s.state().profile }

// Swap replaces the served snapshot — the hot-swap seam. The new
// engine's state (recogniser, health profile) is built before the
// pointer flips, the hot-query cache is purged after (stale bodies must
// not outlive the snapshot that produced them), and the probase_snapshot_*
// gauges read the new profile on the next scrape. The purge is
// instrumented (probase_cache_purges_total, probase_cache_purged_entries)
// and the traffic analytics — rolling windows, hot-key sketches — reset
// with it: the new snapshot's latencies and hit rates are a different
// population. In-flight requests finish against whichever state they
// started with. An unprofilable graph (cycle) is refused.
func (s *Server) Swap(pb *core.Probase) error {
	st := newSnapState(pb)
	if st.profile == nil {
		return fmt.Errorf("server: refusing swap: new snapshot is not profilable")
	}
	old := s.snap.Swap(st)
	purged := s.cache.Purge()
	s.metrics.cachePurges.Inc()
	s.metrics.cachePurged.Set(float64(purged))
	s.traffic.reset()
	// Drop the server's reference on the old epoch. The mapped backing
	// store (if any) is unmapped by whoever releases last — here if the
	// old snapshot is idle, or the final straggling request otherwise —
	// so a reload under load drops zero requests.
	if old != nil {
		old.release()
	}
	return nil
}

// Reload re-runs Config.Reloader and hot-swaps the result in — the
// shared implementation behind POST /v1/admin/reload and probase-serve's
// SIGHUP handler. On success it returns the newly live Probase (owned
// by the server from then on); on failure the previous snapshot keeps
// serving.
func (s *Server) Reload() (*core.Probase, error) {
	if s.cfg.Reloader == nil {
		return nil, fmt.Errorf("reload not configured (no snapshot source)")
	}
	pb, err := s.cfg.Reloader()
	if err != nil {
		return nil, fmt.Errorf("reload: %w", err)
	}
	if err := s.Swap(pb); err != nil {
		pb.Close()
		return nil, fmt.Errorf("reload: %w", err)
	}
	return pb, nil
}

// Handler returns the root handler for mounting under an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP lets the Server be used directly as a handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Metrics exposes the metrics registry (for embedding in other muxes).
func (s *Server) Metrics() *Metrics { return s.metrics }

// httpError is an error with an HTTP status; handlers return it to
// signal 4xx responses.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...any) error {
	return &httpError{status: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

// handlerFunc computes a response. Returning (key != "", body) makes the
// response cacheable under that key. Errors map to JSON error bodies.
// st is the snapshot epoch the wrapper acquired for this request:
// handlers must answer from it — never from s.state() — so that a
// concurrent Swap can neither mix old and new snapshots within one
// response nor unmap a mapped graph mid-query.
type handlerFunc func(st *snapState, r *http.Request) (cacheKey string, body any, err error)

// wrap applies the per-request pipeline: method check, deadline, a
// per-endpoint child span, cache lookup, handler, cache fill, metrics,
// and a traffic-analytics observation (rolling RED windows + hot-key
// sketch) booked when the request finishes. When the request is traced
// (the obs middleware opened a root span), the latency observation
// carries the trace ID as an exemplar, so a slow histogram bucket
// points at a concrete /debug/traces waterfall.
func (s *Server) wrap(name string, cacheable bool, h handlerFunc) http.Handler {
	em := s.metrics.endpoint(name)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started := time.Now()
		em.requests.Inc()
		s.metrics.inflight.Add(1)
		status := http.StatusOK
		var cacheHit, cacheMiss bool
		defer func() {
			s.metrics.inflight.Add(-1)
			elapsed := time.Since(started)
			em.latency.ObserveDurationExemplar(elapsed, obs.TraceIDFromContext(r.Context()))
			s.traffic.record(name, window.Outcome{
				Latency: elapsed,
				// Only server faults burn SLO budget; 4xx responses are
				// valid negative answers (unknown concepts, bad params)
				// and would let clients degrade our own health verdict.
				Error:     status >= http.StatusInternalServerError,
				CacheHit:  cacheHit,
				CacheMiss: cacheMiss,
			}, hotKeyFor(name, r))
		}()

		// Health and analytics must never be served stale by an
		// intermediary; these endpoints are exactly the uncacheable ones.
		if !cacheable {
			w.Header().Set("Cache-Control", "no-store")
		}

		// Method policy: reload mutates serving state and is POST-only;
		// conceptualize additionally accepts POST form data; everything
		// else is GET.
		methodOK := r.Method == http.MethodGet ||
			(name == epConceptualize && r.Method == http.MethodPost)
		if name == epAdminReload {
			methodOK = r.Method == http.MethodPost
		}
		if !methodOK {
			em.errors.Inc()
			status = http.StatusMethodNotAllowed
			writeJSONError(w, status, "method not allowed")
			return
		}

		// Synthetic fault injection (CI gate-liveness only): fail every
		// Nth query request so the burn-rate engine has a storm to see.
		// Health/admin endpoints stay exempt, or the degraded verdict
		// would be unobservable during the storm it reports.
		if s.cfg.FailInject > 0 && cacheable &&
			s.reqCount.Add(1)%int64(s.cfg.FailInject) == 0 {
			em.errors.Inc()
			status = http.StatusInternalServerError
			writeJSONError(w, status, "synthetic fault (fail-inject)")
			return
		}

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		ctx, span := obs.StartSpan(ctx, "server."+name)
		defer span.End()
		r = r.WithContext(ctx)

		// Pin the snapshot epoch for the whole handler: the reference
		// keeps a concurrent Swap from unmapping the graph under us.
		st := s.acquireState()
		defer st.release()

		key, body, err := h(st, r)
		canCache := cacheable && key != ""
		if err != nil {
			status = http.StatusInternalServerError
			var he *httpError
			if errors.As(err, &he) {
				status = he.status
			}
			if ctx.Err() != nil {
				status = http.StatusServiceUnavailable
			}
			em.errors.Inc()
			span.SetAttr("status", strconv.Itoa(status))
			if status >= http.StatusInternalServerError {
				span.SetError(err.Error())
				obs.Logger(ctx).Warn("request failed",
					"endpoint", name, "status", status, "error", err.Error())
			}
			writeJSONError(w, status, err.Error())
			return
		}
		// body is either pre-marshalled cache bytes or a fresh value.
		var payload []byte
		if raw, ok := body.(cachedBody); ok {
			payload = raw
			w.Header().Set("X-Cache", "hit")
			span.SetAttr("cache", "hit")
			em.cacheHits.Inc()
			cacheHit = true
		} else {
			payload, err = json.Marshal(body)
			if err != nil {
				em.errors.Inc()
				status = http.StatusInternalServerError
				span.SetError("encoding response")
				writeJSONError(w, status, "encoding response")
				return
			}
			if canCache {
				s.cache.Put(key, payload)
				w.Header().Set("X-Cache", "miss")
				span.SetAttr("cache", "miss")
				em.cacheMiss.Inc()
				cacheMiss = true
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write(payload)
		w.Write([]byte("\n"))
	})
}

// cachedBody marks a response that came straight from the cache.
type cachedBody []byte

// cached consults the cache under a "cache.lookup" child span; handlers
// call it once their key is known. The span separates cache time from
// snapshot-query time in a request's waterfall.
func (s *Server) cached(ctx context.Context, key string) (any, bool) {
	_, sp := obs.StartSpan(ctx, "cache.lookup")
	v, ok := s.cache.Get(key)
	sp.SetAttr("hit", strconv.FormatBool(ok))
	sp.End()
	if ok {
		return cachedBody(v), true
	}
	return nil, false
}

func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// rankedResult is one scored label in a response.
type rankedResult struct {
	Label string  `json:"label"`
	Score float64 `json:"score"`
}

func toResults(rs []prob.Ranked) []rankedResult {
	out := make([]rankedResult, len(rs))
	for i, r := range rs {
		out[i] = rankedResult{Label: r.Label, Score: r.Score}
	}
	return out
}

// parseK reads and bounds the k parameter.
func (s *Server) parseK(r *http.Request) (int, error) {
	raw := r.FormValue("k")
	if raw == "" {
		return 10, nil
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k <= 0 {
		return 0, badRequest("k must be a positive integer, got %q", raw)
	}
	if k > s.cfg.MaxK {
		k = s.cfg.MaxK
	}
	return k, nil
}

func cacheKey(parts ...string) string { return strings.Join(parts, "\x1f") }

func (s *Server) handleInstances(st *snapState, r *http.Request) (string, any, error) {
	concept := strings.TrimSpace(r.FormValue("concept"))
	if concept == "" {
		return "", nil, badRequest("missing required parameter: concept")
	}
	k, err := s.parseK(r)
	if err != nil {
		return "", nil, err
	}
	key := cacheKey(epInstances, concept, strconv.Itoa(k))
	if hit, ok := s.cached(r.Context(), key); ok {
		return key, hit, nil
	}
	_, sp := obs.StartSpan(r.Context(), "snapshot.query")
	sp.SetAttr("op", "instances_of")
	results := toResults(st.pb.InstancesOf(concept, k))
	sp.End()
	return key, struct {
		Concept string         `json:"concept"`
		K       int            `json:"k"`
		Results []rankedResult `json:"results"`
	}{concept, k, results}, nil
}

func (s *Server) handleConcepts(st *snapState, r *http.Request) (string, any, error) {
	term := strings.TrimSpace(r.FormValue("term"))
	if term == "" {
		return "", nil, badRequest("missing required parameter: term")
	}
	k, err := s.parseK(r)
	if err != nil {
		return "", nil, err
	}
	key := cacheKey(epConcepts, term, strconv.Itoa(k))
	if hit, ok := s.cached(r.Context(), key); ok {
		return key, hit, nil
	}
	_, sp := obs.StartSpan(r.Context(), "snapshot.query")
	sp.SetAttr("op", "concepts_of")
	results := toResults(st.pb.ConceptsOf(term, k))
	sp.End()
	return key, struct {
		Term    string         `json:"term"`
		K       int            `json:"k"`
		Results []rankedResult `json:"results"`
	}{term, k, results}, nil
}

func (s *Server) handleTypicality(st *snapState, r *http.Request) (string, any, error) {
	concept := strings.TrimSpace(r.FormValue("concept"))
	instance := strings.TrimSpace(r.FormValue("instance"))
	if concept == "" || instance == "" {
		return "", nil, badRequest("missing required parameters: concept and instance")
	}
	key := cacheKey(epTypicality, concept, instance)
	if hit, ok := s.cached(r.Context(), key); ok {
		return key, hit, nil
	}
	_, sp := obs.StartSpan(r.Context(), "snapshot.query")
	sp.SetAttr("op", "typicality")
	down := s.scoreFor(st.pb.InstancesOf(concept, s.cfg.MaxK), instance, false)
	up := s.scoreFor(st.pb.ConceptsOf(instance, s.cfg.MaxK), concept, true)
	sp.End()
	return key, struct {
		Concept           string  `json:"concept"`
		Instance          string  `json:"instance"`
		TInstGivenConcept float64 `json:"t_instance_given_concept"`
		TConceptGivenInst float64 `json:"t_concept_given_instance"`
	}{concept, instance, down, up}, nil
}

// scoreFor finds label's score in a ranked list. Concept labels in the
// graph are canonical singular sense nodes ("company#2"), so the query's
// surface form is canonicalised and sense suffixes are stripped before
// comparing; conceptPos selects the super-concept canonicaliser.
func (s *Server) scoreFor(rs []prob.Ranked, label string, conceptPos bool) float64 {
	want := strings.ToLower(label)
	canon := extraction.CanonicalSub(label)
	if conceptPos {
		canon = extraction.CanonicalSuper(label)
	}
	for _, r := range rs {
		got := strings.ToLower(core.BaseLabel(r.Label))
		if got == want || got == strings.ToLower(canon) {
			return r.Score
		}
	}
	return 0
}

func (s *Server) handlePlausibility(st *snapState, r *http.Request) (string, any, error) {
	x := strings.TrimSpace(r.FormValue("x"))
	y := strings.TrimSpace(r.FormValue("y"))
	if x == "" || y == "" {
		return "", nil, badRequest("missing required parameters: x and y")
	}
	key := cacheKey(epPlausibility, x, y)
	if hit, ok := s.cached(r.Context(), key); ok {
		return key, hit, nil
	}
	_, sp := obs.StartSpan(r.Context(), "snapshot.query")
	sp.SetAttr("op", "plausibility")
	p := st.pb.Plausibility(x, y)
	sp.End()
	return key, struct {
		X            string  `json:"x"`
		Y            string  `json:"y"`
		Plausibility float64 `json:"plausibility"`
	}{x, y, p}, nil
}

const (
	maxConceptualizeTerms = 32
	maxConceptualizeText  = 4096
)

func (s *Server) handleConceptualize(st *snapState, r *http.Request) (string, any, error) {
	k, err := s.parseK(r)
	if err != nil {
		return "", nil, err
	}
	var terms []string
	rawTerms := strings.TrimSpace(r.FormValue("terms"))
	text := strings.TrimSpace(r.FormValue("text"))
	switch {
	case rawTerms != "" && text != "":
		return "", nil, badRequest("pass either terms or text, not both")
	case rawTerms != "":
		for _, t := range strings.Split(rawTerms, ",") {
			if t = strings.TrimSpace(t); t != "" {
				terms = append(terms, t)
			}
		}
	case text != "":
		if len(text) > maxConceptualizeText {
			return "", nil, badRequest("text exceeds %d bytes", maxConceptualizeText)
		}
		for _, m := range st.rec.Recognize(text) {
			terms = append(terms, m.Text)
		}
		if len(terms) == 0 {
			return "", nil, notFound("no known entity mentions in text")
		}
	default:
		return "", nil, badRequest("missing required parameter: terms or text")
	}
	if len(terms) > maxConceptualizeTerms {
		return "", nil, badRequest("at most %d terms", maxConceptualizeTerms)
	}
	key := cacheKey(epConceptualize, strings.Join(terms, ","), strconv.Itoa(k))
	if hit, ok := s.cached(r.Context(), key); ok {
		return key, hit, nil
	}
	_, sp := obs.StartSpan(r.Context(), "snapshot.query")
	sp.SetAttr("op", "conceptualize")
	ranked, ok := st.pb.Conceptualize(terms, k)
	if !ok {
		// Per-term abstraction fills in when the joint set is unknown —
		// the internal/apps short-text fallback.
		sp.SetAttr("fallback", "per_term")
		ranked = perTermFallback(st.pb, terms, k)
		if len(ranked) == 0 {
			sp.End()
			return "", nil, notFound("no term in %v is known to the taxonomy", terms)
		}
	}
	sp.End()
	return key, struct {
		Terms   []string       `json:"terms"`
		K       int            `json:"k"`
		Results []rankedResult `json:"results"`
	}{terms, k, toResults(ranked)}, nil
}

// perTermFallback merges per-term abstractions by summed score when the
// joint conceptualisation has no candidate covering every term.
func perTermFallback(pb *core.Probase, terms []string, k int) []prob.Ranked {
	scores := map[string]float64{}
	for _, term := range terms {
		for _, r := range pb.ConceptsOf(term, k) {
			scores[core.BaseLabel(r.Label)] += r.Score
		}
	}
	out := make([]prob.Ranked, 0, len(scores))
	for label, sc := range scores {
		out = append(out, prob.Ranked{Label: label, Score: sc})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Label < out[j].Label
	})
	return prob.TopK(out, k)
}

func (s *Server) handleHealthz(st *snapState, r *http.Request) (string, any, error) {
	ev := s.traffic.engine.Eval()
	return "", struct {
		// Status is "ok", or "degraded" when the SLO burn-rate engine
		// has a multi-window rule firing (Reasons says which).
		Status  string   `json:"status"`
		Reasons []string `json:"reasons,omitempty"`
		Nodes   int      `json:"nodes"`
		Edges   int      `json:"edges"`
		// Format is the snapshot's on-disk format magic ("PBC2" or
		// "PBFL"); empty when serving an in-memory build.
		Format string `json:"snapshot_format,omitempty"`
		// Mapped reports whether the graph is served zero-copy out of a
		// memory-mapped snapshot file.
		Mapped bool `json:"snapshot_mapped"`
		// Fingerprint identifies the logical graph content; two replicas
		// serving the same taxonomy report the same value regardless of
		// heap or mapped loading or snapshot format.
		Fingerprint string        `json:"fingerprint"`
		Shards      int           `json:"cache_shards"`
		Cached      int           `json:"cache_entries"`
		UptimeMS    int64         `json:"uptime_ms"`
		Build       obs.BuildInfo `json:"build"`
	}{
		Status:      ev.Status,
		Reasons:     ev.Reasons,
		Nodes:       st.pb.Graph.NumNodes(),
		Edges:       st.pb.Graph.NumEdges(),
		Format:      st.pb.Format,
		Mapped:      st.pb.Mapped(),
		Fingerprint: st.fingerprint(),
		Shards:      s.cache.Shards(),
		Cached:      s.cache.Len(),
		UptimeMS:    time.Since(s.start).Milliseconds(),
		Build:       obs.Version(),
	}, nil
}

// fingerprint returns the graph fingerprint from the health profile,
// falling back to hashing the graph directly if profiling failed.
func (st *snapState) fingerprint() string {
	if st.profile != nil {
		return st.profile.Fingerprint
	}
	return taxstats.Fingerprint(st.pb.Graph)
}

// handleAdminStats serves the full taxstats health profile of the
// currently served snapshot — the same data the probase_snapshot_*
// gauges summarise, with the complete histograms and top-concept table.
func (s *Server) handleAdminStats(st *snapState, r *http.Request) (string, any, error) {
	if st.profile == nil {
		return "", nil, &httpError{status: http.StatusServiceUnavailable,
			msg: "snapshot health profile unavailable"}
	}
	return "", struct {
		SnapshotFormat string            `json:"snapshot_format,omitempty"`
		UptimeMS       int64             `json:"uptime_ms"`
		Profile        *taxstats.Profile `json:"profile"`
	}{
		SnapshotFormat: st.pb.Format,
		UptimeMS:       time.Since(s.start).Milliseconds(),
		Profile:        st.profile,
	}, nil
}

// handleAdminReload re-runs Config.Reloader and hot-swaps the result in
// (POST only). The response describes the snapshot now being served.
// Concurrent in-flight requests finish against the snapshot they
// started on; the old mapping (if any) is unmapped only after the last
// of them drains. probase-serve wires SIGHUP to the same path, so
// `kill -HUP` and `curl -X POST .../v1/admin/reload` are equivalent.
func (s *Server) handleAdminReload(st *snapState, r *http.Request) (string, any, error) {
	if s.cfg.Reloader == nil {
		return "", nil, &httpError{status: http.StatusNotImplemented,
			msg: "reload not configured (no snapshot source)"}
	}
	pb, err := s.Reload()
	if err != nil {
		return "", nil, err
	}
	return "", struct {
		Status string `json:"status"`
		Nodes  int    `json:"nodes"`
		Edges  int    `json:"edges"`
		Format string `json:"snapshot_format,omitempty"`
		Mapped bool   `json:"snapshot_mapped"`
	}{
		Status: "reloaded",
		Nodes:  pb.Graph.NumNodes(),
		Edges:  pb.Graph.NumEdges(),
		Format: pb.Format,
		Mapped: pb.Mapped(),
	}, nil
}

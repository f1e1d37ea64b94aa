package server

import (
	"net/http"
	"strconv"

	"repro/internal/obs"
	"repro/internal/window"
)

// Metric family names exported on /metrics. Kept as constants so the
// exposition tests and the README stay in sync with the code.
const (
	famRequests  = "probase_http_requests_total"
	famErrors    = "probase_http_errors_total"
	famCacheHit  = "probase_cache_hits_total"
	famCacheMiss = "probase_cache_misses_total"
	famLatency   = "probase_http_request_duration_seconds"
	famInflight  = "probase_http_inflight_requests"
	famShardLen  = "probase_cache_shard_entries"
	famNodes     = "probase_snapshot_nodes"
	famEdges     = "probase_snapshot_edges"
	famMapped    = "probase_snapshot_mapped"
	famPurges    = "probase_cache_purges_total"
	famPurged    = "probase_cache_purged_entries"
	famSLOBurn   = "probase_slo_burn_rate"
	famSLOBad    = "probase_slo_degraded"
	famSLOTarget = "probase_slo_availability_target"
)

// endpointMetrics aggregates one endpoint's counters and latency.
type endpointMetrics struct {
	requests  *obs.Counter
	errors    *obs.Counter // responses with status >= 400
	cacheHits *obs.Counter
	cacheMiss *obs.Counter
	latency   *obs.Histogram
}

// Metrics is the server's observability surface, backed by a private
// obs.Registry (multiple servers in one process, as in tests, must not
// collide on global names). It renders as the Prometheus text
// exposition on /metrics (PrometheusHandler).
type Metrics struct {
	reg       *obs.Registry
	endpoints map[string]*endpointMetrics
	inflight  *obs.Gauge
	// Snapshot hot-swap cache purges: how many swaps have purged the
	// hot-query cache, and how many entries the latest purge evicted.
	cachePurges *obs.Counter
	cachePurged *obs.Gauge
}

// newMetrics prepares per-endpoint metric families plus the process
// gauges for the given endpoint names.
func newMetrics(endpoints []string) *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{
		reg:       reg,
		endpoints: make(map[string]*endpointMetrics, len(endpoints)),
		inflight:  reg.Gauge(famInflight, "Requests currently being served."),
		cachePurges: reg.Counter(famPurges,
			"Hot-query cache purges (one per snapshot hot-swap)."),
		cachePurged: reg.Gauge(famPurged,
			"Entries evicted by the most recent cache purge."),
	}
	for _, name := range endpoints {
		l := obs.L("endpoint", name)
		m.endpoints[name] = &endpointMetrics{
			requests:  reg.Counter(famRequests, "Requests received, by endpoint.", l),
			errors:    reg.Counter(famErrors, "Responses with status >= 400, by endpoint.", l),
			cacheHits: reg.Counter(famCacheHit, "Hot-query cache hits, by endpoint.", l),
			cacheMiss: reg.Counter(famCacheMiss, "Hot-query cache misses, by endpoint.", l),
			latency: reg.Histogram(famLatency,
				"Request latency in seconds, by endpoint.", obs.DefBuckets, l),
		}
	}
	obs.RegisterProcessGauges(reg)
	return m
}

// observeCache registers per-shard occupancy gauges for the hot-query
// cache, evaluated at scrape time.
func (m *Metrics) observeCache(c *Cache) {
	for i := 0; i < c.Shards(); i++ {
		shard := i
		m.reg.GaugeFunc(famShardLen, "Entries per hot-query cache shard.",
			func() float64 { return float64(c.ShardLen(shard)) },
			obs.L("shard", strconv.Itoa(shard)))
	}
}

// observeSLO registers the burn-rate engine's verdict as gauges,
// evaluated at scrape time (the engine's internal TTL cache keeps a
// scrape storm from re-merging the rings per gauge).
func (m *Metrics) observeSLO(e *window.Engine) {
	for _, name := range e.WindowNames() {
		w := name
		m.reg.GaugeFunc(famSLOBurn,
			"Error-budget burn rate over the rolling window (1.0 = budget exactly exhausted at period end).",
			func() float64 { return e.BurnRate(w) },
			obs.L("window", w))
	}
	m.reg.GaugeFunc(famSLOBad,
		"1 when a multi-window burn rule is firing and /v1/healthz reports degraded, else 0.",
		func() float64 {
			if e.Eval().Status == window.HealthDegraded {
				return 1
			}
			return 0
		})
	target := e.Config().AvailabilityTarget
	m.reg.GaugeFunc(famSLOTarget,
		"Configured availability target (fraction of requests that must not be 5xx).",
		func() float64 { return target })
}

// observeSnapshot registers the loaded taxonomy's shape and storage
// mode as gauges.
func (m *Metrics) observeSnapshot(nodes, edges func() int, mapped func() bool) {
	m.reg.GaugeFunc(famNodes, "Nodes in the loaded taxonomy snapshot.",
		func() float64 { return float64(nodes()) })
	m.reg.GaugeFunc(famEdges, "Edges in the loaded taxonomy snapshot.",
		func() float64 { return float64(edges()) })
	m.reg.GaugeFunc(famMapped,
		"1 when the graph is served zero-copy out of a memory-mapped snapshot, else 0.",
		func() float64 {
			if mapped() {
				return 1
			}
			return 0
		})
}

func (m *Metrics) endpoint(name string) *endpointMetrics { return m.endpoints[name] }

// Registry exposes the underlying registry so binaries can attach
// their own gauges (snapshot file size, ...).
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// PrometheusHandler serves the Prometheus text exposition.
func (m *Metrics) PrometheusHandler() http.Handler { return m.reg.Handler() }

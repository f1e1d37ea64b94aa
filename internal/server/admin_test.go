package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/taxstats"
)

func TestAdminStatsEndpoint(t *testing.T) {
	s := newTestServer(t)
	rec, _ := get(t, s, "/v1/admin/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		SnapshotFormat string            `json:"snapshot_format"`
		UptimeMS       int64             `json:"uptime_ms"`
		Profile        *taxstats.Profile `json:"profile"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Profile == nil {
		t.Fatal("no profile in admin stats")
	}
	pb := testProbase(t)
	if resp.Profile.Nodes != pb.Graph.NumNodes() || resp.Profile.Edges != pb.Graph.NumEdges() {
		t.Errorf("profile shape %d/%d, graph %d/%d",
			resp.Profile.Nodes, resp.Profile.Edges, pb.Graph.NumNodes(), pb.Graph.NumEdges())
	}
	if resp.Profile.Fingerprint != taxstats.Fingerprint(pb.Graph) {
		t.Error("profile fingerprint does not match the served graph")
	}
	if resp.Profile.Typicality.Count == 0 || resp.Profile.Plausibility.Count == 0 {
		t.Errorf("score distributions not profiled: %+v", resp.Profile)
	}
	// In-memory build: no snapshot format.
	if resp.SnapshotFormat != "" {
		t.Errorf("snapshot format = %q for an in-memory build", resp.SnapshotFormat)
	}
	// Method discipline matches the other endpoints.
	req := httptest.NewRequest(http.MethodPost, "/v1/admin/stats", nil)
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	if rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", rr.Code)
	}
}

// gaugeValue extracts one plain (unlabelled or exact-labelled) gauge
// sample from a /metrics exposition.
func gaugeValue(t *testing.T, exposition, series string) string {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (.+)$`)
	m := re.FindStringSubmatch(exposition)
	if m == nil {
		t.Fatalf("series %q not found in exposition:\n%s", series, exposition)
	}
	return m[1]
}

func scrape(t *testing.T, s *Server) string {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	return rec.Body.String()
}

// TestSwapRefreshesStats: after swapping in a snapshot with different
// content, the same
// /metrics registry scrapes the new probase_snapshot_* values, healthz
// reports the new identity, and the hot-query cache is purged.
func TestSwapRefreshesStats(t *testing.T) {
	pb := testProbase(t)
	s := New(pb, Config{})

	// Warm the cache so the purge is observable.
	if rec, _ := get(t, s, "/v1/instances?concept=companies&k=5"); rec.Code != http.StatusOK {
		t.Fatalf("warmup failed: %d", rec.Code)
	}
	if s.cache.Len() == 0 {
		t.Fatal("cache not warmed")
	}

	before := scrape(t, s)
	nodesBefore := gaugeValue(t, before, "probase_snapshot_nodes")
	conceptsBefore := gaugeValue(t, before, "probase_snapshot_concepts")
	_, health := get(t, s, "/v1/healthz")
	fpBefore, _ := health["fingerprint"].(string)
	if fpBefore == "" {
		t.Fatal("healthz has no fingerprint")
	}

	// Grow the taxonomy and swap the new engine in.
	g := graph.NewBuilderFrom(pb.Graph)
	sc := g.Intern("swapped-concept")
	for _, inst := range []string{"swapped-a", "swapped-b", "swapped-c"} {
		g.AddEdge(sc, g.Intern(inst), 5, 0.9)
	}
	npb, err := core.FromFrozen(g.Freeze())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Swap(npb); err != nil {
		t.Fatal(err)
	}

	if s.cache.Len() != 0 {
		t.Errorf("cache holds %d stale entries after swap", s.cache.Len())
	}
	after := scrape(t, s)
	if nodesAfter := gaugeValue(t, after, "probase_snapshot_nodes"); nodesAfter == nodesBefore {
		t.Errorf("probase_snapshot_nodes did not refresh: still %s", nodesAfter)
	}
	if conceptsAfter := gaugeValue(t, after, "probase_snapshot_concepts"); conceptsAfter == conceptsBefore {
		t.Errorf("probase_snapshot_concepts did not refresh: still %s", conceptsAfter)
	}
	if !strings.Contains(after, `probase_snapshot_score{dist="plausibility",stat="count"}`) {
		t.Error("score-distribution gauges missing after swap")
	}
	_, health = get(t, s, "/v1/healthz")
	if fpAfter, _ := health["fingerprint"].(string); fpAfter == fpBefore {
		t.Error("healthz fingerprint did not change after swap")
	}

	// The new taxonomy answers queries.
	rec, body := get(t, s, "/v1/instances?concept=swapped-concept&k=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("post-swap query failed: %d %s", rec.Code, rec.Body.String())
	}
	if results, _ := body["results"].([]any); len(results) != 3 {
		t.Errorf("post-swap results = %v, want the 3 swapped instances", body["results"])
	}
}

func TestCachePurge(t *testing.T) {
	c := NewCache(4, 8)
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		c.Put(k, []byte(k))
	}
	if c.Len() == 0 {
		t.Fatal("cache empty before purge")
	}
	c.Purge()
	if c.Len() != 0 {
		t.Errorf("cache holds %d entries after purge", c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Error("purged key still readable")
	}
	// The cache stays usable after a purge.
	c.Put("x", []byte("y"))
	if v, ok := c.Get("x"); !ok || string(v) != "y" {
		t.Error("cache unusable after purge")
	}
}

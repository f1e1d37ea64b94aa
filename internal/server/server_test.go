package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/extraction"
)

var (
	pbOnce sync.Once
	pbVal  *core.Probase
	pbErr  error
)

// testProbase builds one taxonomy for all server tests.
func testProbase(t testing.TB) *core.Probase {
	t.Helper()
	pbOnce.Do(func() {
		w := corpus.DefaultWorld(1)
		c := corpus.NewGenerator(w, corpus.GenConfig{Sentences: 8000, Seed: 11}).Generate()
		inputs := make([]extraction.Input, len(c.Sentences))
		for i, s := range c.Sentences {
			inputs[i] = extraction.Input{Text: s.Text, PageScore: s.PageScore}
		}
		pbVal, pbErr = core.Build(inputs, core.Config{})
	})
	if pbErr != nil {
		t.Fatal(pbErr)
	}
	return pbVal
}

func newTestServer(t testing.TB) *Server {
	t.Helper()
	return New(testProbase(t), Config{})
}

// get performs one request against the handler without a network hop.
func get(t *testing.T, s *Server, path string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var body map[string]any
	if ct := rec.Header().Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: invalid JSON %q: %v", path, rec.Body.String(), err)
		}
	}
	return rec, body
}

func results(t *testing.T, body map[string]any) []any {
	t.Helper()
	rs, ok := body["results"].([]any)
	if !ok {
		t.Fatalf("no results array in %v", body)
	}
	return rs
}

func hasLabel(rs []any, label string) bool {
	for _, r := range rs {
		m, ok := r.(map[string]any)
		if !ok {
			return false
		}
		if m["label"] == label {
			return true
		}
		if l, ok := m["label"].(string); ok && core.BaseLabel(l) == label {
			return true
		}
	}
	return false
}

func TestInstancesEndpoint(t *testing.T) {
	s := newTestServer(t)
	rec, body := get(t, s, "/v1/instances?concept=companies&k=10")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	if body["concept"] != "companies" || body["k"] != float64(10) {
		t.Errorf("params not echoed: %v", body)
	}
	if rs := results(t, body); !hasLabel(rs, "IBM") {
		t.Errorf("IBM missing from instances of companies: %v", rs)
	}
	// Unknown concepts are a valid query with an empty answer, not a 4xx.
	rec, body = get(t, s, "/v1/instances?concept=zzz-not-a-concept")
	if rec.Code != http.StatusOK || len(results(t, body)) != 0 {
		t.Errorf("unknown concept: status %d, body %v", rec.Code, body)
	}
}

func TestConceptsEndpoint(t *testing.T) {
	s := newTestServer(t)
	rec, body := get(t, s, "/v1/concepts?term=IBM&k=10")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	if rs := results(t, body); !hasLabel(rs, "company") {
		t.Errorf("company missing from concepts of IBM: %v", rs)
	}
}

func TestTypicalityEndpoint(t *testing.T) {
	s := newTestServer(t)
	rec, body := get(t, s, "/v1/typicality?concept=companies&instance=IBM")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	tix, _ := body["t_instance_given_concept"].(float64)
	txi, _ := body["t_concept_given_instance"].(float64)
	if tix <= 0 || txi <= 0 {
		t.Errorf("typicality scores = %v / %v, want both > 0 (body %v)", tix, txi, body)
	}
}

func TestPlausibilityEndpoint(t *testing.T) {
	s := newTestServer(t)
	rec, body := get(t, s, "/v1/plausibility?x=companies&y=IBM")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if p, _ := body["plausibility"].(float64); p <= 0 {
		t.Errorf("plausibility(companies, IBM) = %v, want > 0", p)
	}
}

func TestConceptualizeEndpoint(t *testing.T) {
	s := newTestServer(t)
	rec, body := get(t, s, "/v1/conceptualize?terms=China,India,Brazil&k=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	if len(results(t, body)) == 0 {
		t.Error("joint conceptualisation returned nothing")
	}
	// Free-text input goes through the entity recogniser.
	rec, body = get(t, s, "/v1/conceptualize?text=IBM+opened+an+office")
	if rec.Code != http.StatusOK {
		t.Fatalf("text conceptualize status = %d, body %s", rec.Code, rec.Body.String())
	}
	if len(results(t, body)) == 0 {
		t.Error("text conceptualisation returned nothing")
	}
	terms, _ := body["terms"].([]any)
	found := false
	for _, term := range terms {
		if term == "IBM" {
			found = true
		}
	}
	if !found {
		t.Errorf("recogniser did not surface IBM: %v", body)
	}
}

func TestHealthzEndpoint(t *testing.T) {
	s := newTestServer(t)
	rec, body := get(t, s, "/v1/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if body["status"] != "ok" {
		t.Errorf("status field = %v", body["status"])
	}
	if n, _ := body["nodes"].(float64); n <= 0 {
		t.Errorf("nodes = %v, want > 0", body["nodes"])
	}
}

func TestBadParameters(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		path string
		want int
	}{
		{"/v1/instances", http.StatusBadRequest},                                             // missing concept
		{"/v1/instances?concept=companies&k=0", http.StatusBadRequest},                       // non-positive k
		{"/v1/instances?concept=companies&k=abc", http.StatusBadRequest},                     // non-numeric k
		{"/v1/concepts", http.StatusBadRequest},                                              // missing term
		{"/v1/typicality?concept=companies", http.StatusBadRequest},                          // missing instance
		{"/v1/typicality?instance=IBM", http.StatusBadRequest},                               // missing concept
		{"/v1/plausibility?x=companies", http.StatusBadRequest},                              // missing y
		{"/v1/conceptualize", http.StatusBadRequest},                                         // no terms, no text
		{"/v1/conceptualize?terms=a&text=b", http.StatusBadRequest},                          // both
		{"/v1/conceptualize?terms=zz1,zz2", http.StatusNotFound},                             // nothing known
		{"/v1/conceptualize?terms=" + strings.Repeat("x,", 40) + "x", http.StatusBadRequest}, // too many
	}
	for _, tc := range cases {
		rec, body := get(t, s, tc.path)
		if rec.Code != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.path, rec.Code, tc.want)
		}
		if _, ok := body["error"]; !ok {
			t.Errorf("%s: error body missing: %s", tc.path, rec.Body.String())
		}
	}
	// Wrong method.
	req := httptest.NewRequest(http.MethodDelete, "/v1/instances?concept=companies", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE status = %d, want 405", rec.Code)
	}
}

func TestCacheHitOnRepeatedQuery(t *testing.T) {
	s := newTestServer(t)
	first, firstBody := get(t, s, "/v1/instances?concept=companies&k=7")
	if got := first.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("first query X-Cache = %q, want miss", got)
	}
	second, secondBody := get(t, s, "/v1/instances?concept=companies&k=7")
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("second query X-Cache = %q, want hit", got)
	}
	if fmt.Sprint(firstBody) != fmt.Sprint(secondBody) {
		t.Errorf("cache changed the response:\nmiss: %v\nhit:  %v", firstBody, secondBody)
	}
	// A different k is a different query.
	third, _ := get(t, s, "/v1/instances?concept=companies&k=8")
	if got := third.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("different-k query X-Cache = %q, want miss", got)
	}
}

// TestConcurrentClients hammers a live server with overlapping queries
// from many goroutines. Under -race this fails if the cache shards, the
// metrics, or the typicality memoisation are unsynchronised; it also
// asserts that the hot-query cache actually absorbed repeated queries
// (nonzero per-endpoint cache-hit counters).
func TestConcurrentClients(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	paths := []string{
		"/v1/instances?concept=companies&k=5",
		"/v1/instances?concept=animals&k=5",
		"/v1/instances?concept=countries&k=5",
		"/v1/concepts?term=IBM&k=5",
		"/v1/concepts?term=China&k=5",
		"/v1/typicality?concept=companies&instance=IBM",
		"/v1/plausibility?x=companies&y=IBM",
		"/v1/conceptualize?terms=China,India,Brazil&k=5",
		"/v1/healthz",
	}
	const (
		clients  = 100 // concurrent goroutines, per the acceptance bar
		requests = 4   // per client -> 400 requests total
	)
	client := ts.Client()
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				path := paths[(c+i)%len(paths)]
				resp, err := client.Get(ts.URL + path)
				if err != nil {
					errc <- err
					return
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("%s: status %d", path, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	var totalRequests, totalHits int64
	for _, name := range allEndpoints {
		ep := s.metrics.endpoint(name)
		totalRequests += ep.requests.Value()
		totalHits += ep.cacheHits.Value()
	}
	if want := int64(clients * requests); totalRequests != want {
		t.Errorf("requests counted = %v, want %v", totalRequests, want)
	}
	if totalHits == 0 {
		t.Error("no cache hits after 200 overlapping requests; sharded cache is not serving")
	}
	t.Logf("%v requests, %v cache hits", totalRequests, totalHits)
}

// The request deadline must abort work, not hang: a server configured
// with a tiny timeout still answers (with 200 for these fast queries or
// 503, never a hang).
func TestRequestTimeoutConfigured(t *testing.T) {
	s := New(testProbase(t), Config{RequestTimeout: time.Nanosecond})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rec, _ := get(t, s, "/v1/healthz")
		if rec.Code != http.StatusOK && rec.Code != http.StatusServiceUnavailable {
			t.Errorf("status = %d under tiny deadline", rec.Code)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("request hung under tiny deadline")
	}
}

func TestMetricsErrorsCounted(t *testing.T) {
	s := newTestServer(t)
	get(t, s, "/v1/instances") // missing param -> 400
	ep := s.metrics.endpoint("instances")
	if ep.errors.Value() == 0 {
		t.Error("error counter not incremented by a 400")
	}
	if ep.latency.Snapshot().Count == 0 {
		t.Error("latency histogram did not observe the 400")
	}
}

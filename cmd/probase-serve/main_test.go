package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/extraction"
)

var (
	snapOnce sync.Once
	snapPath string
	snapErr  error
)

// snapshotPath builds one snapshot shared by all probase-serve tests —
// produced exactly the way probase-build produces it (core.Build +
// Save), so the binary is exercised against a real artefact.
func snapshotPath(t *testing.T) string {
	t.Helper()
	snapOnce.Do(func() {
		w := corpus.DefaultWorld(1)
		c := corpus.NewGenerator(w, corpus.GenConfig{Sentences: 8000, Seed: 11}).Generate()
		inputs := make([]extraction.Input, len(c.Sentences))
		for i, s := range c.Sentences {
			inputs[i] = extraction.Input{Text: s.Text, PageScore: s.PageScore}
		}
		pb, err := core.Build(inputs, core.Config{})
		if err != nil {
			snapErr = err
			return
		}
		dir, err := os.MkdirTemp("", "probase-serve-test")
		if err != nil {
			snapErr = err
			return
		}
		snapPath = filepath.Join(dir, "p.bin")
		f, err := os.Create(snapPath)
		if err != nil {
			snapErr = err
			return
		}
		defer f.Close()
		snapErr = pb.Save(f)
	})
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	return snapPath
}

// startServer runs the binary's run() on a random port and returns its
// base URL, a cancel triggering shutdown, and the exit channel.
func startServer(t *testing.T, ctx context.Context) (string, chan error, *bytes.Buffer) {
	t.Helper()
	return startServerArgs(t, ctx)
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("%s: invalid JSON %q: %v", url, raw, err)
	}
	return resp.StatusCode, body
}

// TestServeEndToEnd starts the server from a built snapshot, answers
// all six endpoints, and shuts down cleanly on context cancellation
// (the code path SIGTERM takes through signal.NotifyContext).
func TestServeEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, exit, stderr := startServer(t, ctx)

	endpoints := []string{
		"/v1/instances?concept=companies&k=5",
		"/v1/concepts?term=IBM&k=5",
		"/v1/typicality?concept=companies&instance=IBM",
		"/v1/plausibility?x=companies&y=IBM",
		"/v1/conceptualize?terms=China,India,Brazil&k=5",
		"/v1/healthz",
	}
	for _, ep := range endpoints {
		status, body := getJSON(t, base+ep)
		if status != http.StatusOK {
			t.Errorf("%s: status %d, body %v", ep, status, body)
		}
	}
	// The metrics endpoint reflects the traffic.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if !regexp.MustCompile(`(?m)^probase_http_requests_total\{endpoint="instances"\} [1-9]`).Match(exposition) {
		t.Errorf("request counter is zero after traffic:\n%s", exposition)
	}

	cancel()
	select {
	case err := <-exit:
		if err != nil {
			t.Fatalf("shutdown error: %v\n%s", err, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("server did not drain within 10s\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "stopped") {
		t.Errorf("missing clean-stop log:\n%s", stderr.String())
	}
}

// TestServeSIGTERM delivers a real SIGTERM to the process and expects
// the server (whose context comes from signal.NotifyContext, as in
// main) to drain and exit cleanly.
func TestServeSIGTERM(t *testing.T) {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	base, exit, stderr := startServer(t, ctx)

	if status, _ := getJSON(t, base+"/v1/healthz"); status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exit:
		if err != nil {
			t.Fatalf("SIGTERM shutdown error: %v\n%s", err, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("server did not exit on SIGTERM\n%s", stderr.String())
	}
}

func TestServeErrors(t *testing.T) {
	var stderr bytes.Buffer
	if err := run(context.Background(), []string{"-snapshot", "/no/such.bin"}, &stderr, nil); err == nil {
		t.Error("missing snapshot accepted")
	}
	if err := run(context.Background(), []string{"-bogus-flag"}, &stderr, nil); err == nil {
		t.Error("bad flag accepted")
	}
	// A corrupt snapshot must fail at startup, not at first query.
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.bin")
	if err := os.WriteFile(bad, []byte("XXXXnot a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-snapshot", bad}, &stderr, nil); err == nil {
		t.Error("corrupt snapshot accepted")
	}
	// An unusable listen address errors out rather than hanging.
	if err := run(context.Background(), []string{"-snapshot", snapshotPath(t), "-addr", "256.0.0.1:99999"}, &stderr, nil); err == nil {
		t.Error("bad listen address accepted")
	}
}

// TestServeDrainsInflight verifies the graceful path: a request racing
// the shutdown still completes with 200.
func TestServeDrainsInflight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, exit, stderr := startServer(t, ctx)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _ := getJSONquiet(base + fmt.Sprintf("/v1/instances?concept=companies&k=%d", i+1))
			if status != http.StatusOK {
				errs <- fmt.Errorf("in-flight request got status %d", status)
			}
		}(i)
	}
	// Cancel while the requests are (likely) in flight; Shutdown must let
	// them finish.
	cancel()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	select {
	case err := <-exit:
		if err != nil {
			t.Fatalf("drain error: %v\n%s", err, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain timed out")
	}
}

// TestServeTracingEndToEnd drives the full traceability loop: a request
// carrying a W3C traceparent is answered with the server span's
// traceparent on the same trace, the trace (with per-stage child spans)
// is browsable on the pprof listener's /debug/traces, and the latency
// histogram's OpenMetrics exposition carries the trace ID as an
// exemplar.
func TestServeTracingEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, exit, stderr := startServerArgs(t, ctx,
		"-pprof-addr", "127.0.0.1:0", "-trace-sample", "1", "-trace-buf", "16")

	// The pprof listener port is random; it is announced on stderr
	// before the ready signal, so reading here does not race the server.
	m := regexp.MustCompile(`pprof listening.*addr=([0-9.]+:[0-9]+)`).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("pprof listener address not logged:\n%s", stderr.String())
	}
	debugBase := "http://" + m[1]

	const inbound = "00-af7651916cd43dd8448eb211c80319c3-b7ad6b7169203331-01"
	req, err := http.NewRequest(http.MethodGet, base+"/v1/instances?concept=companies&k=3", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", inbound)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out := resp.Header.Get("traceparent")
	wantTrace := "af7651916cd43dd8448eb211c80319c3"
	if !strings.Contains(out, wantTrace) {
		t.Fatalf("response traceparent %q does not continue trace %s", out, wantTrace)
	}

	// The OpenMetrics exposition carries the trace ID as an exemplar on
	// the latency histogram; the plain Prometheus exposition does not.
	// Scraped before any further traffic: exemplars keep the latest
	// trace per bucket, so a later request landing in the same bucket
	// would legitimately replace this one.
	mreq, _ := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	mreq.Header.Set("Accept", "application/openmetrics-text")
	mresp, err := http.DefaultClient.Do(mreq)
	if err != nil {
		t.Fatal(err)
	}
	om, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(om), `trace_id="`+wantTrace) {
		t.Error("OpenMetrics exposition has no exemplar for the traced request")
	}
	plain, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	plainBody, _ := io.ReadAll(plain.Body)
	plain.Body.Close()
	if strings.Contains(string(plainBody), "trace_id=") {
		t.Error("plain Prometheus exposition leaks exemplars (breaks strict 0.0.4 parsers)")
	}

	// Same query again: the second request must be answered from cache
	// and traced as a hit.
	status, _ := getJSON(t, base+"/v1/instances?concept=companies&k=3")
	if status != http.StatusOK {
		t.Fatalf("second request status %d", status)
	}

	// The trace is on /debug/traces with the request's child spans.
	tresp, err := http.Get(debugBase + "/debug/traces?trace=" + wantTrace)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	var tdoc struct {
		Traces []struct {
			TraceID      string `json:"trace_id"`
			Root         string `json:"root"`
			RemoteParent string `json:"remote_parent"`
			Spans        []struct {
				Name  string            `json:"name"`
				Attrs map[string]string `json:"attrs"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&tdoc); err != nil {
		t.Fatal(err)
	}
	if len(tdoc.Traces) != 1 {
		t.Fatalf("want exactly the propagated trace, got %d traces", len(tdoc.Traces))
	}
	td := tdoc.Traces[0]
	if td.RemoteParent != "b7ad6b7169203331" {
		t.Errorf("remote parent = %q", td.RemoteParent)
	}
	spans := map[string]map[string]string{}
	for _, sp := range td.Spans {
		spans[sp.Name] = sp.Attrs
	}
	for _, want := range []string{"GET /v1/instances", "server.instances", "cache.lookup", "snapshot.query"} {
		if _, ok := spans[want]; !ok {
			t.Errorf("trace missing span %q (have %v)", want, td.Spans)
		}
	}
	if got := spans["cache.lookup"]["hit"]; got != "false" {
		t.Errorf("first request cache.lookup hit = %q, want false", got)
	}
	if got := spans["snapshot.query"]["op"]; got != "instances_of" {
		t.Errorf("snapshot.query op = %q", got)
	}

	// The waterfall renders.
	hreq, _ := http.NewRequest(http.MethodGet, debugBase+"/debug/traces?format=html", nil)
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	html, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if !strings.Contains(string(html), wantTrace) {
		t.Errorf("HTML waterfall missing trace %s", wantTrace)
	}

	cancel()
	select {
	case err := <-exit:
		if err != nil {
			t.Fatalf("shutdown error: %v\n%s", err, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain")
	}
}

// getJSONquiet is getJSON without a testing.T: in the drain test a
// request may legally race the listener close, and a connection refused
// after shutdown completes is not a failure of draining.
func getJSONquiet(url string) (int, map[string]any) {
	resp, err := http.Get(url)
	if err != nil {
		return http.StatusOK, nil // listener already closed: nothing was in flight
	}
	defer resp.Body.Close()
	var body map[string]any
	json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, body
}

// TestServeMmapSIGHUPReload drives the full storage lifecycle on the
// binary: serve a PBC2 snapshot zero-copy via -mmap, verify healthz
// reports the mapped storage mode, hot-reload it twice — once over POST
// /v1/admin/reload, once over a real SIGHUP — and confirm queries keep
// answering throughout with the snapshot still memory-mapped.
func TestServeMmapSIGHUPReload(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, exit, stderr := startServerArgs(t, ctx, "-mmap")

	status, health := getJSON(t, base+"/v1/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	if mapped, _ := health["snapshot_mapped"].(bool); !mapped {
		t.Fatalf("-mmap serving but healthz says snapshot_mapped=%v: %v", health["snapshot_mapped"], health)
	}

	// Reload #1: the admin endpoint.
	resp, err := http.Post(base+"/v1/admin/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin reload status %d: %s", resp.StatusCode, raw)
	}
	var reload struct {
		Status string `json:"status"`
		Mapped bool   `json:"snapshot_mapped"`
	}
	if err := json.Unmarshal(raw, &reload); err != nil {
		t.Fatalf("reload body %q: %v", raw, err)
	}
	if reload.Status != "reloaded" || !reload.Mapped {
		t.Fatalf("reload = %+v, want status=reloaded mapped=true", reload)
	}

	// Reload #2: a real SIGHUP. Each successful reload purges the
	// hot-query cache, so the purge counter on /metrics is the race-free
	// signal that the swap completed.
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		mresp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		text, _ := io.ReadAll(mresp.Body)
		mresp.Body.Close()
		if strings.Contains(string(text), "probase_cache_purges_total 2") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("SIGHUP reload never completed; metrics:\n%s", text)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Still serving, still mapped.
	if status, _ := getJSON(t, base+"/v1/instances?concept=companies&k=5"); status != http.StatusOK {
		t.Errorf("query after reloads: status %d", status)
	}
	status, health = getJSON(t, base+"/v1/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz after reloads: status %d", status)
	}
	if mapped, _ := health["snapshot_mapped"].(bool); !mapped {
		t.Errorf("snapshot no longer mapped after reloads: %v", health)
	}

	cancel()
	select {
	case err := <-exit:
		if err != nil {
			t.Fatalf("shutdown error: %v\n%s", err, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain after reloads")
	}
	logs := stderr.String()
	if !strings.Contains(logs, "snapshot reloaded") || !strings.Contains(logs, "SIGHUP") {
		t.Errorf("missing SIGHUP reload log:\n%s", logs)
	}
}

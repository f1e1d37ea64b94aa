package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/snapshot"
)

// TestBackendsByteIdentical: one taxonomy snapshot served from the
// heap-decoded frozen CSR view and from the memory-mapped zero-copy
// view must answer every endpoint with byte-identical JSON. Any
// divergence means the mapped arrays are misinterpreting the on-disk
// bytes.
func TestBackendsByteIdentical(t *testing.T) {
	var buf bytes.Buffer
	if err := testProbase(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.pbc2")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	pb, err := snapshot.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mpb, err := snapshot.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mpb.Close()

	servers := map[string]*Server{
		"frozen": New(pb, Config{}),
		"mapped": New(mpb, Config{}),
	}

	paths := []string{
		"/v1/instances?concept=companies&k=10",
		"/v1/instances?concept=animals&k=25",
		"/v1/instances?concept=zzz-not-a-concept",
		"/v1/concepts?term=IBM&k=10",
		"/v1/concepts?term=China&k=3",
		"/v1/typicality?concept=companies&instance=IBM",
		"/v1/plausibility?x=companies&y=IBM",
		"/v1/plausibility?x=animals&y=IBM",
		"/v1/conceptualize?terms=China,India,Brazil&k=5",
		"/v1/conceptualize?text=IBM+opened+an+office&k=5",
	}
	for _, p := range paths {
		want := fetchBody(t, servers["frozen"], p)
		if got := fetchBody(t, servers["mapped"], p); got != want {
			t.Errorf("%s diverges across backings:\nfrozen: %s\nmapped: %s", p, want, got)
		}
	}

	// healthz carries uptime, cache occupancy and the storage mode
	// (mapped is expected to differ there), so compare just the logical
	// snapshot identity. The fingerprint hashes graph content, so both
	// backings must agree on it.
	type identity struct {
		Status      string `json:"status"`
		Nodes       int    `json:"nodes"`
		Edges       int    `json:"edges"`
		Format      string `json:"snapshot_format"`
		Fingerprint string `json:"fingerprint"`
	}
	ids := map[string]identity{}
	for name, srv := range servers {
		var id identity
		if err := json.Unmarshal([]byte(fetchBody(t, srv, "/v1/healthz")), &id); err != nil {
			t.Fatal(err)
		}
		ids[name] = id
	}
	if ids["frozen"].Fingerprint == "" {
		t.Error("healthz fingerprint is empty")
	}
	if ids["mapped"] != ids["frozen"] {
		t.Errorf("healthz identity diverges: frozen %+v, mapped %+v", ids["frozen"], ids["mapped"])
	}

	// The mapped server must actually be serving zero-copy (on hosts
	// where the platform supports it) and say so on healthz.
	var mh struct {
		Mapped bool `json:"snapshot_mapped"`
	}
	if err := json.Unmarshal([]byte(fetchBody(t, servers["mapped"], "/v1/healthz")), &mh); err != nil {
		t.Fatal(err)
	}
	if mh.Mapped != mpb.Mapped() {
		t.Errorf("healthz snapshot_mapped = %v, engine says %v", mh.Mapped, mpb.Mapped())
	}

	// And the full health profiles (admin stats) must agree as well;
	// uptime naturally differs, so compare only the profile payload.
	profiles := map[string]string{}
	for name, srv := range servers {
		var ps struct {
			Profile json.RawMessage `json:"profile"`
		}
		if err := json.Unmarshal([]byte(fetchBody(t, srv, "/v1/admin/stats")), &ps); err != nil {
			t.Fatal(err)
		}
		profiles[name] = string(ps.Profile)
	}
	if profiles["mapped"] != profiles["frozen"] {
		t.Errorf("health profiles diverge across backings:\nfrozen: %s\nmapped: %s",
			profiles["frozen"], profiles["mapped"])
	}
}

// fetchBody performs one in-process request and returns the raw body.
func fetchBody(t *testing.T, s *Server, path string) string {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status = %d, body %s", path, rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

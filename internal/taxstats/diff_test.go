package taxstats

import (
	"strings"
	"testing"

	"repro/internal/graph"
)

func f(v float64) *float64 { return &v }

func testProfiles(t *testing.T) (*Profile, *Profile) {
	t.Helper()
	g := companyGraph()
	old, err := Compute(g, mustTypicality(t, g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Perturb: add a concept with instances and re-profile.
	b := graph.NewBuilderFrom(companyGraph())
	sc := b.Intern("startup")
	b.AddEdge(b.Lookup("company"), sc, 5, 0.7)
	b.AddEdge(sc, b.Intern("Acme"), 3, 0.6)
	g2 := b.Freeze()
	new, err := Compute(g2, mustTypicality(t, g2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return old, new
}

func TestDiffIdenticalIsZero(t *testing.T) {
	g := companyGraph()
	p1, err := Compute(g, mustTypicality(t, g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compute(g, mustTypicality(t, g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := DiffProfiles(p1, p2)
	if r.Drifted() {
		t.Fatalf("identical profiles drifted: %+v", r)
	}
	if r.FingerprintChanged {
		t.Error("fingerprint changed between identical profiles")
	}
	for _, d := range r.Deltas {
		if d.Abs != 0 {
			t.Errorf("metric %s drifted: %+v", d.Metric, d)
		}
	}
	// And an all-zero report passes any gate.
	th := &Thresholds{Schema: ThresholdsSchema, Metrics: map[string]Limit{
		"nodes": {MaxRel: f(0.0)}, "entropy_mean": {MaxAbs: f(0.0)},
	}}
	if breaches := th.Gate(r); len(breaches) != 0 {
		t.Errorf("zero drift breached: %v", breaches)
	}
}

func TestDiffPerturbed(t *testing.T) {
	old, new := testProfiles(t)
	r := DiffProfiles(old, new)
	if !r.Drifted() || !r.FingerprintChanged {
		t.Fatalf("perturbed snapshot did not drift: %+v", r)
	}
	byName := map[string]Delta{}
	for _, d := range r.Deltas {
		byName[d.Metric] = d
	}
	nd := byName["nodes"]
	if nd.Abs != 2 { // startup + Acme
		t.Errorf("nodes delta = %+v, want abs 2", nd)
	}
	if nd.Rel == nil || *nd.Rel <= 0 {
		t.Errorf("nodes rel = %v, want positive", nd.Rel)
	}
	th := &Thresholds{Schema: ThresholdsSchema, Metrics: map[string]Limit{
		"nodes": {MaxRel: f(0.1)},
	}}
	breaches := th.Gate(r)
	if len(breaches) != 1 || breaches[0].Metric != "nodes" || breaches[0].Kind != "rel" {
		t.Fatalf("breaches = %v, want one rel breach on nodes", breaches)
	}
	if r.Breaches == nil {
		t.Error("Gate did not record breaches on the report")
	}
	// A generous budget lets the same drift through.
	loose := &Thresholds{Schema: ThresholdsSchema, Metrics: map[string]Limit{
		"nodes": {MaxRel: f(5.0)},
	}}
	if breaches := loose.Gate(r); len(breaches) != 0 {
		t.Errorf("loose gate breached: %v", breaches)
	}
}

func TestGateZeroToNonzeroBreachesRel(t *testing.T) {
	old := &Profile{}
	new := &Profile{Orphans: 3}
	r := DiffProfiles(old, new)
	th := &Thresholds{Schema: ThresholdsSchema, Metrics: map[string]Limit{
		"orphans": {MaxRel: f(100.0)}, // any finite budget
	}}
	breaches := th.Gate(r)
	if len(breaches) != 1 || breaches[0].Kind != "rel" {
		t.Fatalf("breaches = %v, want the undefined-ratio rel breach", breaches)
	}
	if breaches[0].Value != infRel {
		t.Errorf("breach value = %v, want the infinite-drift sentinel", breaches[0].Value)
	}
}

func TestGateAbsoluteLimit(t *testing.T) {
	old := &Profile{MaxDepth: 4}
	new := &Profile{MaxDepth: 9}
	r := DiffProfiles(old, new)
	th := &Thresholds{Schema: ThresholdsSchema, Metrics: map[string]Limit{
		"max_depth": {MaxAbs: f(3.0)},
	}}
	breaches := th.Gate(r)
	if len(breaches) != 1 || breaches[0].Kind != "abs" || breaches[0].Value != 5 {
		t.Fatalf("breaches = %v, want one abs breach of 5", breaches)
	}
	// Shrinkage counts too: drift is |new-old|.
	r2 := DiffProfiles(new, old)
	if breaches := th.Gate(r2); len(breaches) != 1 {
		t.Errorf("negative drift not gated: %v", breaches)
	}
}

func TestTopConceptChurn(t *testing.T) {
	old, new := testProfiles(t)
	// Force full top lists so churn is meaningful.
	r := DiffProfiles(old, new)
	var churn *Delta
	for i := range r.Deltas {
		if r.Deltas[i].Metric == topConceptChurnMetric {
			churn = &r.Deltas[i]
		}
	}
	if churn == nil {
		t.Fatal("no churn delta emitted")
	}
	if churn.New < 0 || churn.New > 1 {
		t.Errorf("churn = %v, want a fraction", churn.New)
	}
	// Hand-built: 2 of 3 old top concepts gone.
	got := topChurn(
		[]ConceptStat{{Label: "a"}, {Label: "b"}, {Label: "c"}},
		[]ConceptStat{{Label: "a"}, {Label: "x"}, {Label: "y"}},
	)
	if want := 2.0 / 3.0; got != want {
		t.Errorf("topChurn = %v, want %v", got, want)
	}
	if topChurn(nil, nil) != 0 {
		t.Error("empty old list should churn 0")
	}
}

func TestParseThresholdsRejectsBadInput(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"bad schema", `{"schema":"nope/v9","metrics":{"nodes":{"max_rel":0.1}}}`, "schema"},
		{"unknown field", `{"schema":"` + ThresholdsSchema + `","metrics":{},"extra":1}`, "unknown field"},
		{"no metrics", `{"schema":"` + ThresholdsSchema + `","metrics":{}}`, "no metrics"},
		{"unknown metric", `{"schema":"` + ThresholdsSchema + `","metrics":{"nodez":{"max_rel":0.1}}}`, "unknown metric"},
		{"no bound", `{"schema":"` + ThresholdsSchema + `","metrics":{"nodes":{}}}`, "no bound"},
		{"unknown limit field", `{"schema":"` + ThresholdsSchema + `","metrics":{"nodes":{"max":1}}}`, "unknown field"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseThresholds([]byte(c.doc))
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("ParseThresholds = %v, want error containing %q", err, c.wantErr)
			}
		})
	}
}

func TestParseThresholdsAccepts(t *testing.T) {
	th, err := ParseThresholds([]byte(`{
		"schema": "` + ThresholdsSchema + `",
		"metrics": {
			"nodes": {"max_rel": 0.25},
			"max_depth": {"max_abs": 3},
			"top_concept_churn": {"max_abs": 0.5}
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(th.Metrics) != 3 {
		t.Errorf("metrics = %v", th.Metrics)
	}
}

// TestKnownMetricsCoverDeltas pins that every delta DiffProfiles emits
// is gateable (and vice versa: the vocabulary has no dead names).
func TestKnownMetricsCoverDeltas(t *testing.T) {
	known := map[string]bool{}
	for _, n := range KnownMetrics() {
		known[n] = true
	}
	r := DiffProfiles(&Profile{}, &Profile{})
	if len(r.Deltas) != len(known) {
		t.Errorf("deltas = %d, known metrics = %d", len(r.Deltas), len(known))
	}
	for _, d := range r.Deltas {
		if !known[d.Metric] {
			t.Errorf("delta %q not in KnownMetrics", d.Metric)
		}
	}
}

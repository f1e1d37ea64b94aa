package taxstats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/prob"
)

// companyGraph builds the usual small taxonomy plus one orphan node:
//
//	company -> {IBM x50 p.99, Microsoft x40 p.99, Xyz Inc x1 p.5}
//	company -> it company (x20 p.95) -> {Microsoft x30 p.99, IBM x10 p.99}
//	company -> big company (x15 p.9) -> {Microsoft x20 p.95}
//	widget (isolated)
func companyGraph() *graph.Frozen {
	g := graph.NewBuilder()
	ids := map[string]graph.NodeID{}
	for _, l := range []string{"company", "it company", "big company", "IBM", "Microsoft", "Xyz Inc", "widget"} {
		ids[l] = g.Intern(l)
	}
	g.AddEdge(ids["company"], ids["IBM"], 50, 0.99)
	g.AddEdge(ids["company"], ids["Microsoft"], 40, 0.99)
	g.AddEdge(ids["company"], ids["Xyz Inc"], 1, 0.5)
	g.AddEdge(ids["company"], ids["it company"], 20, 0.95)
	g.AddEdge(ids["it company"], ids["Microsoft"], 30, 0.99)
	g.AddEdge(ids["it company"], ids["IBM"], 10, 0.99)
	g.AddEdge(ids["company"], ids["big company"], 15, 0.9)
	g.AddEdge(ids["big company"], ids["Microsoft"], 20, 0.95)
	return g.Freeze()
}

// syntheticGraph builds a ~260-node three-layer taxonomy from a fixed
// formula — big enough that the parallel passes actually fan out.
func syntheticGraph() *graph.Frozen {
	g := graph.NewBuilder()
	root := g.Intern("root")
	for c := 0; c < 20; c++ {
		concept := g.Intern(fmt.Sprintf("concept-%02d", c))
		g.AddEdge(root, concept, int64(c+1), float64(c%10)/10)
		for i := 0; i < 12; i++ {
			inst := g.Intern(fmt.Sprintf("inst-%02d-%02d", c, i))
			g.AddEdge(concept, inst, int64(i+1), float64((c+i)%11)/10)
			if i%3 == 0 {
				// Shared instances create ambiguity (nonzero entropy).
				other := g.Intern(fmt.Sprintf("inst-%02d-%02d", (c+1)%20, i))
				g.AddEdge(concept, other, 2, 0.8)
			}
		}
	}
	return g.Freeze()
}

func mustTypicality(t *testing.T, g *graph.Frozen) *prob.Typicality {
	t.Helper()
	ty, err := prob.NewTypicality(g)
	if err != nil {
		t.Fatal(err)
	}
	return ty
}

func TestComputeStructural(t *testing.T) {
	g := companyGraph()
	p, err := Compute(g, mustTypicality(t, g), Options{Workers: 2, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes != 7 || p.Edges != 8 {
		t.Errorf("nodes/edges = %d/%d, want 7/8", p.Nodes, p.Edges)
	}
	if p.Concepts != 3 {
		t.Errorf("concepts = %d, want 3", p.Concepts)
	}
	// The orphan widget is a leaf, so it counts as an instance too.
	if p.Instances != 4 {
		t.Errorf("instances = %d, want 4", p.Instances)
	}
	if p.Roots != 2 { // company + widget
		t.Errorf("roots = %d, want 2", p.Roots)
	}
	if p.Orphans != 1 {
		t.Errorf("orphans = %d, want 1", p.Orphans)
	}
	wantLabel := int64(len("company") + len("it company") + len("big company") +
		len("IBM") + len("Microsoft") + len("Xyz Inc") + len("widget"))
	if p.LabelBytes != wantLabel {
		t.Errorf("label bytes = %d, want %d", p.LabelBytes, wantLabel)
	}
	// Longest path to a leaf: company -> it company -> IBM.
	if p.MaxDepth != 2 {
		t.Errorf("max depth = %d, want 2", p.MaxDepth)
	}
	if want := []int64{4, 2, 1}; len(p.DepthCounts) != 3 ||
		p.DepthCounts[0] != want[0] || p.DepthCounts[1] != want[1] || p.DepthCounts[2] != want[2] {
		t.Errorf("depth counts = %v, want %v", p.DepthCounts, want)
	}
	if p.TopoLevels != 3 {
		t.Errorf("topo levels = %d, want 3", p.TopoLevels)
	}
	if p.OutDegree.Max != 5 || p.InDegree.Max != 3 {
		t.Errorf("degree max out/in = %d/%d, want 5/3", p.OutDegree.Max, p.InDegree.Max)
	}
	// 8 edges over 7 nodes, both directions.
	if math.Abs(p.OutDegree.Mean-8.0/7) > 1e-12 || math.Abs(p.InDegree.Mean-8.0/7) > 1e-12 {
		t.Errorf("degree means = %v/%v, want 8/7", p.OutDegree.Mean, p.InDegree.Mean)
	}
}

func TestComputeTopConcepts(t *testing.T) {
	g := companyGraph()
	p, err := Compute(g, nil, Options{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.TopConcepts) != 2 {
		t.Fatalf("top concepts = %+v, want 2 entries", p.TopConcepts)
	}
	// company has 3 direct instances, it company 2, big company 1.
	if p.TopConcepts[0].Label != "company" || p.TopConcepts[0].Instances != 3 {
		t.Errorf("top concept = %+v, want company/3", p.TopConcepts[0])
	}
	if p.TopConcepts[1].Label != "it company" || p.TopConcepts[1].Instances != 2 {
		t.Errorf("second concept = %+v, want it company/2", p.TopConcepts[1])
	}
	if p.TopConcepts[0].OutDegree != 5 {
		t.Errorf("company out-degree = %d, want 5", p.TopConcepts[0].OutDegree)
	}
}

func TestComputeScoreDists(t *testing.T) {
	g := companyGraph()
	p, err := Compute(g, mustTypicality(t, g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Plausibility.Count != 8 {
		t.Errorf("plausibility count = %d, want 8 (one per edge)", p.Plausibility.Count)
	}
	if p.Plausibility.Min != 0.5 || p.Plausibility.Max != 0.99 {
		t.Errorf("plausibility min/max = %v/%v, want 0.5/0.99", p.Plausibility.Min, p.Plausibility.Max)
	}
	if p.Plausibility.ZeroMass != 0 {
		t.Errorf("plausibility zero mass = %v, want 0", p.Plausibility.ZeroMass)
	}
	// P50 over [.5 .9 .95 .95 .99 .99 .99 .99]: rank ceil(.5*8)=4 -> 0.95.
	if p.Plausibility.P50 != 0.95 {
		t.Errorf("plausibility p50 = %v, want 0.95", p.Plausibility.P50)
	}
	// All four instances were profiled; the orphan contributes no
	// typicality scores and is excluded from the entropy population.
	if p.SampledInstances != 4 {
		t.Errorf("sampled instances = %d, want 4", p.SampledInstances)
	}
	if p.Entropy.Count != 3 {
		t.Errorf("entropy count = %d, want 3 (orphan excluded)", p.Entropy.Count)
	}
	// Every T(x|i) vector is normalised, so scores lie in (0, 1].
	if p.Typicality.Count == 0 || p.Typicality.Min <= 0 || p.Typicality.Max > 1 {
		t.Errorf("typicality dist out of range: %+v", p.Typicality)
	}
	// Xyz Inc belongs to exactly one concept -> at least one zero-entropy
	// instance; IBM/Microsoft belong to several -> a positive max.
	if p.Entropy.Min != 0 || p.Entropy.Max <= 0 {
		t.Errorf("entropy min/max = %v/%v, want 0/positive", p.Entropy.Min, p.Entropy.Max)
	}
}

func TestComputeNilTypicality(t *testing.T) {
	g := companyGraph()
	p, err := Compute(g, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Typicality.Count != 0 || p.Entropy.Count != 0 || p.SampledInstances != 0 {
		t.Errorf("graph-only profile has score passes: %+v", p)
	}
	if p.Plausibility.Count != 8 {
		t.Errorf("plausibility still profiled without typ: %d", p.Plausibility.Count)
	}
}

func TestComputeSampleCap(t *testing.T) {
	g := syntheticGraph()
	full, err := Compute(g, mustTypicality(t, g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := Compute(g, mustTypicality(t, g), Options{SampleInstances: 10})
	if err != nil {
		t.Fatal(err)
	}
	if full.SampledInstances != full.Instances {
		t.Errorf("uncapped sampled = %d, want %d", full.SampledInstances, full.Instances)
	}
	if capped.SampledInstances != 10 {
		t.Errorf("capped sampled = %d, want 10", capped.SampledInstances)
	}
	if capped.Typicality.Count >= full.Typicality.Count {
		t.Errorf("cap did not shrink the typicality population: %d vs %d",
			capped.Typicality.Count, full.Typicality.Count)
	}
}

// TestComputeDeterministic is the package's core contract: the profile
// is byte-identical at workers=1 and workers=8.
func TestComputeDeterministic(t *testing.T) {
	g := syntheticGraph()
	ty := mustTypicality(t, g)
	p1, err := Compute(g, ty, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p8, err := Compute(g, ty, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := json.Marshal(p1)
	if err != nil {
		t.Fatal(err)
	}
	j8, err := json.Marshal(p8)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j8) {
		t.Errorf("profiles differ between workers=1 and workers=8:\n%s\n%s", j1, j8)
	}
}

// TestComputeBackendIdentical pins that profiling a heap-loaded and a
// memory-mapped copy of the same snapshot yields the same profile
// (shared fingerprint included).
func TestComputeBackendIdentical(t *testing.T) {
	var buf bytes.Buffer
	if err := syntheticGraph().Save(&buf); err != nil {
		t.Fatal(err)
	}
	heap, err := graph.LoadFrozen(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := graph.LoadMapped(buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	ph, err := Compute(heap, mustTypicality(t, heap), Options{})
	if err != nil {
		t.Fatal(err)
	}
	pm, err := Compute(mapped, mustTypicality(t, mapped), Options{})
	if err != nil {
		t.Fatal(err)
	}
	jh, _ := json.Marshal(ph)
	jm, _ := json.Marshal(pm)
	if string(jh) != string(jm) {
		t.Errorf("profiles differ between heap-loaded and mapped graphs:\n%s\n%s", jh, jm)
	}
}

func TestFingerprint(t *testing.T) {
	f := companyGraph()
	fp := Fingerprint(f)
	if len(fp) != 16 {
		t.Fatalf("fingerprint %q, want 16 hex digits", fp)
	}
	if got := Fingerprint(graph.NewBuilderFrom(f).Freeze()); got != fp {
		t.Errorf("thawed and refrozen fingerprint %q != original %q", got, fp)
	}
	// Any content change moves the digest: a new count...
	c1 := graph.NewBuilderFrom(f)
	c1.AddEdge(c1.Lookup("company"), c1.Lookup("IBM"), 1, 0)
	if Fingerprint(c1.Freeze()) == fp {
		t.Error("fingerprint unchanged after count bump")
	}
	// ...a new plausibility...
	c2 := graph.NewBuilderFrom(f)
	c2.AddEdge(c2.Lookup("company"), c2.Lookup("IBM"), 0, 0.42)
	if Fingerprint(c2.Freeze()) == fp {
		t.Error("fingerprint unchanged after plausibility change")
	}
	// ...or a new node.
	c3 := graph.NewBuilderFrom(f)
	c3.Intern("startup")
	if Fingerprint(c3.Freeze()) == fp {
		t.Error("fingerprint unchanged after node addition")
	}
}

func TestQuantileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.50, 5}, {0.90, 9}, {0.99, 10}, {0.10, 1}, {1.0, 10},
	}
	for _, c := range cases {
		if got := quantile(sorted, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(empty) = %v, want 0", got)
	}
}

func TestScoreDistMasses(t *testing.T) {
	d := newScoreDist([]float64{0, 0, 0.5, 1, 1 - 1e-12}, unitBounds())
	if d.ZeroMass != 0.4 {
		t.Errorf("zero mass = %v, want 0.4", d.ZeroMass)
	}
	// Both the exact 1 and the saturated 1-1e-12 count as mass at one.
	if d.OneMass != 0.4 {
		t.Errorf("one mass = %v, want 0.4", d.OneMass)
	}
	if d.Count != 5 || d.Min != 0 || d.Max != 1 {
		t.Errorf("summary = %+v", d)
	}
}

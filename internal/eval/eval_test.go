package eval

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/graph"
	"repro/internal/kb"
)

func TestSampleConceptPrecision(t *testing.T) {
	w := corpus.DefaultWorld(1)
	s := kb.NewStore(0)
	s.Add("company", "IBM", 5)
	s.Add("company", "Microsoft", 5)
	s.Add("company", "not a company at all", 1)
	s.Add("city", "Paris", 2)
	cps := SampleConceptPrecision(s, w, []string{"company", "city", "river"}, 50, 1)
	if len(cps) != 3 {
		t.Fatalf("got %d results", len(cps))
	}
	byName := map[string]ConceptPrecision{}
	for _, cp := range cps {
		byName[cp.Concept] = cp
	}
	if got := byName["company"]; got.Sampled != 3 || got.Correct != 2 {
		t.Errorf("company = %+v", got)
	}
	if got := byName["city"]; got.Precision() != 1 {
		t.Errorf("city = %+v", got)
	}
	if got := byName["river"]; got.Sampled != 0 {
		t.Errorf("river = %+v", got)
	}
	avg := Average(cps)
	want := (2.0/3.0 + 1.0) / 2 // river unsampled, excluded
	if diff := avg - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("average = %v, want %v", avg, want)
	}
}

func TestSamplingCap(t *testing.T) {
	w := corpus.DefaultWorld(1)
	s := kb.NewStore(0)
	for _, inst := range w.InstancesOf("company") {
		s.Add("company", inst, 1)
	}
	cps := SampleConceptPrecision(s, w, []string{"company"}, 50, 1)
	if cps[0].Sampled != 50 {
		t.Errorf("sampled = %d, want 50", cps[0].Sampled)
	}
}

func TestPairSetPrecision(t *testing.T) {
	w := corpus.DefaultWorld(1)
	pairs := []kb.Pair{
		{X: "company", Y: "IBM"},
		{X: "company", Y: "Paris"},
	}
	if got := PairSetPrecision(pairs, w); got != 0.5 {
		t.Errorf("precision = %v, want 0.5", got)
	}
	if got := PairSetPrecision(nil, w); got != 0 {
		t.Errorf("empty precision = %v", got)
	}
}

func TestHierarchy(t *testing.T) {
	g := graph.NewBuilder()
	thing := g.Intern("thing")
	animal := g.Intern("animal")
	pet := g.Intern("pet")
	cat := g.Intern("cat")
	g.AddEdge(thing, animal, 1, 1)
	g.AddEdge(animal, pet, 1, 1)
	g.AddEdge(pet, cat, 1, 1)
	m, err := Hierarchy("test", g.Freeze())
	if err != nil {
		t.Fatal(err)
	}
	if m.IsAPairs != 2 { // thing->animal, animal->pet
		t.Errorf("isA pairs = %d, want 2", m.IsAPairs)
	}
	if m.MaxLevel != 3 {
		t.Errorf("max level = %d, want 3", m.MaxLevel)
	}
	// levels: thing 3, animal 2, pet 1 -> avg 2 over 3 concepts
	if m.AvgLevel != 2 {
		t.Errorf("avg level = %v, want 2", m.AvgLevel)
	}
}

func TestHierarchyEmptyAndCycle(t *testing.T) {
	g := graph.NewBuilder()
	if m, err := Hierarchy("empty", g.Freeze()); err != nil || m.IsAPairs != 0 {
		t.Errorf("empty: %+v %v", m, err)
	}
	a, b := g.Intern("a"), g.Intern("b")
	g.AddEdge(a, b, 1, 1)
	g.AddEdge(b, a, 1, 1)
	if _, err := Hierarchy("cyclic", g.Freeze()); err == nil {
		t.Error("cycle accepted")
	}
}

func TestDistribution(t *testing.T) {
	g := graph.NewBuilder()
	big := g.Intern("big")
	small := g.Intern("small")
	for i := 0; i < 150; i++ {
		g.AddEdge(big, g.Intern(string(rune('A'))+string(rune('0'+i%10))+string(rune('a'+i/10))), 1, 1)
	}
	g.AddEdge(small, g.Intern("only one"), 1, 1)
	d := Distribution("test", g.Freeze())
	var b100, bLt5 int
	for _, b := range d.Buckets {
		switch b.Label {
		case "[100,1K)":
			b100 = b.Count
		case "<5":
			bLt5 = b.Count
		}
	}
	if b100 != 1 || bLt5 != 1 {
		t.Errorf("buckets wrong: %+v", d.Buckets)
	}
	if d.Top10Share != 1.0 { // only two concepts, both in top 10
		t.Errorf("top10 share = %v", d.Top10Share)
	}
	if d.TotalPairs != 151 {
		t.Errorf("total pairs = %d", d.TotalPairs)
	}
}

func TestStorePrecisionAndRecall(t *testing.T) {
	w := corpus.DefaultWorld(1)
	s := kb.NewStore(0)
	s.Add("company", "IBM", 1)
	s.Add("company", "Microsoft", 1)
	s.Add("dog", "cat", 1)
	p, total := StorePrecision(s, w)
	if total != 3 || p < 0.6 || p > 0.7 {
		t.Errorf("precision = %v over %d", p, total)
	}
	r, found, all := Recall(s, w)
	if found < 2 || all == 0 || r <= 0 {
		t.Errorf("recall = %v (%d/%d)", r, found, all)
	}
	if p, total := StorePrecision(kb.NewStore(0), w); p != 0 || total != 0 {
		t.Error("empty store precision wrong")
	}
}

func TestBenchmarkConceptsCoveredByWorld(t *testing.T) {
	w := corpus.DefaultWorld(1)
	for _, c := range BenchmarkConcepts {
		if len(w.KeysForLabel(c)) == 0 {
			t.Errorf("benchmark concept %q missing from world", c)
		}
	}
	if len(BenchmarkConcepts) != 40 {
		t.Errorf("benchmark concepts = %d, want 40 (Table 5)", len(BenchmarkConcepts))
	}
}

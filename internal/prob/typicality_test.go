package prob

import (
	"math"
	"sync"
	"testing"

	"repro/internal/graph"
)

// companyGraph builds:
//
//	company -> {IBM x50, Microsoft x40, Xyz Inc x1}
//	company -> it company (x20) -> {Microsoft x30, IBM x10}
//	company -> big company (x15) -> {Microsoft x20}
func companyGraph() (*graph.Builder, map[string]graph.NodeID) {
	g := graph.NewBuilder()
	ids := map[string]graph.NodeID{}
	for _, l := range []string{"company", "it company", "big company", "IBM", "Microsoft", "Xyz Inc"} {
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
	return g, ids
}

func TestReachAlgorithm3(t *testing.T) {
	g, ids := companyGraph()
	ty, err := NewTypicality(g.Freeze())
	if err != nil {
		t.Fatal(err)
	}
	if got := ty.Reach(ids["company"], ids["company"]); got != 1 {
		t.Errorf("P(x,x) = %v, want 1", got)
	}
	// Direct edge: P(company, it company) = 0.95.
	if got := ty.Reach(ids["company"], ids["it company"]); math.Abs(got-0.95) > 1e-9 {
		t.Errorf("P(company, it company) = %v, want 0.95", got)
	}
	// Microsoft has three paths from company: direct (0.99),
	// via it company (0.95*0.99), via big company (0.9*0.95).
	want := 1 - (1-0.99)*(1-0.95*0.99)*(1-0.9*0.95)
	if got := ty.Reach(ids["company"], ids["Microsoft"]); math.Abs(got-want) > 1e-9 {
		t.Errorf("P(company, Microsoft) = %v, want %v", got, want)
	}
	// No reverse reachability.
	if got := ty.Reach(ids["Microsoft"], ids["company"]); got != 0 {
		t.Errorf("reverse reach = %v, want 0", got)
	}
}

func TestTypicalityRanking(t *testing.T) {
	g, ids := companyGraph()
	ty, err := NewTypicality(g.Freeze())
	if err != nil {
		t.Fatal(err)
	}
	ranked := ty.InstancesOf(ids["company"])
	if len(ranked) != 3 {
		t.Fatalf("instances = %v", ranked)
	}
	// Microsoft gathers indirect evidence through both sub-concepts
	// (Eq. 4's point: Microsoft-as-IT-company supports Microsoft-as-
	// company) and overtakes IBM despite fewer direct sightings.
	if ranked[0].Label != "Microsoft" {
		t.Errorf("top instance = %v, want Microsoft", ranked[0])
	}
	if ranked[2].Label != "Xyz Inc" {
		t.Errorf("least typical = %v, want Xyz Inc", ranked[2])
	}
	var sum float64
	for _, r := range ranked {
		if r.Score < 0 || r.Score > 1 {
			t.Errorf("score %v out of range", r)
		}
		sum += r.Score
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("typicality does not normalise: sum = %v", sum)
	}
}

func TestTypicalityIndirectEvidence(t *testing.T) {
	// Eq. 3 (direct only) vs Eq. 4 (with descendants): without indirect
	// evidence IBM (50 direct) beats Microsoft (40 direct); with it,
	// Microsoft wins. We verify the Eq. 4 behaviour and that removing the
	// sub-concept edges flips the order.
	g, ids := companyGraph()
	ty, _ := NewTypicality(g.Freeze())
	full := ty.InstancesOf(ids["company"])
	if full[0].Label != "Microsoft" {
		t.Fatalf("full ranking top = %v", full[0])
	}

	flat := graph.NewBuilder()
	c := flat.Intern("company")
	ibm := flat.Intern("IBM")
	ms := flat.Intern("Microsoft")
	flat.AddEdge(c, ibm, 50, 0.99)
	flat.AddEdge(c, ms, 40, 0.99)
	ty2, _ := NewTypicality(flat.Freeze())
	direct := ty2.InstancesOf(c)
	if direct[0].Label != "IBM" {
		t.Fatalf("direct-only ranking top = %v, want IBM", direct[0])
	}
}

func TestConceptsOfAbstraction(t *testing.T) {
	g, ids := companyGraph()
	ty, _ := NewTypicality(g.Freeze())
	ranked := ty.ConceptsOf(ids["Microsoft"])
	if len(ranked) != 3 {
		t.Fatalf("concepts = %v", ranked)
	}
	if ranked[0].Label != "company" {
		t.Errorf("top concept = %v, want company (largest prior)", ranked[0])
	}
	var sum float64
	for _, r := range ranked {
		sum += r.Score
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("abstraction does not normalise: %v", sum)
	}
	if got := ty.ConceptsOf(ids["company"]); len(got) != 0 {
		t.Errorf("root has concepts: %v", got)
	}
}

func TestConceptsOfSetTightens(t *testing.T) {
	// Paper Section 5.3.2: {India} is typically a country; {India, China,
	// Brazil} together pick out the tighter concept.
	g := graph.NewBuilder()
	country := g.Intern("country")
	bric := g.Intern("bric country")
	india := g.Intern("India")
	china := g.Intern("China")
	brazil := g.Intern("Brazil")
	usa := g.Intern("USA")
	g.AddEdge(country, india, 30, 0.99)
	g.AddEdge(country, china, 30, 0.99)
	g.AddEdge(country, brazil, 20, 0.99)
	g.AddEdge(country, usa, 80, 0.99)
	g.AddEdge(country, bric, 10, 0.9)
	g.AddEdge(bric, india, 15, 0.99)
	g.AddEdge(bric, china, 15, 0.99)
	g.AddEdge(bric, brazil, 15, 0.99)
	ty, _ := NewTypicality(g.Freeze())

	single, ok := ty.ConceptsOfSet([]graph.NodeID{india})
	if !ok || single[0].Label != "country" {
		t.Errorf("single abstraction = %v", single)
	}
	joint, ok := ty.ConceptsOfSet([]graph.NodeID{india, china, brazil})
	if !ok {
		t.Fatal("joint abstraction failed")
	}
	if joint[0].Label != "bric country" {
		t.Errorf("joint abstraction = %v, want bric country first", joint)
	}
	// A set with an unknown member still works on the known part.
	got, ok := ty.ConceptsOfSet([]graph.NodeID{india, graph.NoNode})
	if !ok || len(got) == 0 {
		t.Error("unknown member broke set abstraction")
	}
	// All unknown: not ok.
	if _, ok := ty.ConceptsOfSet([]graph.NodeID{graph.NoNode}); ok {
		t.Error("all-unknown set succeeded")
	}
}

func TestNewTypicalityRejectsCycle(t *testing.T) {
	g := graph.NewBuilder()
	a, b := g.Intern("a"), g.Intern("b")
	g.AddEdge(a, b, 1, 0.5)
	g.AddEdge(b, a, 1, 0.5)
	if _, err := NewTypicality(g.Freeze()); err == nil {
		t.Error("cycle accepted")
	}
}

func TestEdgePlausibilityFallback(t *testing.T) {
	if got := edgePlausibility(graph.Edge{Count: 1}); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("1 sighting = %v, want 0.5", got)
	}
	if got := edgePlausibility(graph.Edge{Count: 100}); got < 0.999 {
		t.Errorf("100 sightings = %v, want ~1", got)
	}
	if got := edgePlausibility(graph.Edge{Count: 5, Plausibility: 0.42}); got != 0.42 {
		t.Errorf("explicit plausibility overridden: %v", got)
	}
}

func TestTopK(t *testing.T) {
	rs := []Ranked{{"a", 3}, {"b", 2}, {"c", 1}}
	if got := TopK(rs, 2); len(got) != 2 || got[0].Label != "a" {
		t.Errorf("TopK = %v", got)
	}
	if got := TopK(rs, 10); len(got) != 3 {
		t.Errorf("TopK overflow = %v", got)
	}
}

// Typicality memoises T(i|x) lazily; concurrent queries from a serving
// layer must not race on the cache. Run with -race.
func TestTypicalityConcurrentQueries(t *testing.T) {
	g, ids := companyGraph()
	ty, err := NewTypicality(g.Freeze())
	if err != nil {
		t.Fatal(err)
	}
	concepts := []graph.NodeID{ids["company"], ids["it company"], ids["big company"]}
	instances := []graph.NodeID{ids["IBM"], ids["Microsoft"], ids["Xyz Inc"]}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				x := concepts[(w+i)%len(concepts)]
				if rs := ty.InstancesOf(x); len(rs) == 0 {
					t.Errorf("InstancesOf(%d) empty", x)
					return
				}
				inst := instances[(w+i)%len(instances)]
				ty.ConceptsOf(inst)
				ty.ConceptsOfSet([]graph.NodeID{inst})
				ty.Reach(x, inst)
			}
		}(w)
	}
	wg.Wait()
}

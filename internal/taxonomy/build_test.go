package taxonomy

import (
	"reflect"
	"testing"

	"repro/internal/extraction"
	"repro/internal/graph"
)

// example3 reproduces the paper's running example (Example 3):
//
//	a) plants such as trees and grass
//	b) plants such as trees, grass and herbs
//	c) plants such as steam turbines, pumps, and boilers
//	d) organisms such as plants, trees, grass and animals
//	e) things such as plants, trees, grass, pumps, and boilers
func example3() []extraction.Group {
	return []extraction.Group{
		{Super: "plant", Subs: []string{"tree", "grass"}},
		{Super: "plant", Subs: []string{"tree", "grass", "herb"}},
		{Super: "plant", Subs: []string{"steam turbine", "pump", "boiler"}},
		{Super: "organism", Subs: []string{"plant", "tree", "grass", "animal"}},
		{Super: "thing", Subs: []string{"plant", "tree", "grass", "pump", "boiler"}},
	}
}

func TestBuildSeparatesSenses(t *testing.T) {
	res := Build(example3(), Config{})
	senses := res.Senses["plant"]
	if len(senses) != 2 {
		t.Fatalf("plant senses = %v, want 2", senses)
	}
	if !reflect.DeepEqual(senses, []string{"plant#1", "plant#2"}) {
		t.Errorf("sense names = %v", senses)
	}
	g := res.Graph
	organic := g.Lookup("plant#1")
	industrial := g.Lookup("plant#2")
	if organic == 0xFFFFFFFF || industrial == 0xFFFFFFFF {
		t.Fatal("sense nodes missing")
	}
	// The organic sense (larger mass: sentences a+b) holds herb, the
	// industrial one holds boiler.
	if _, ok := g.EdgeBetween(organic, g.Lookup("herb")); !ok {
		t.Error("plant#1 -> herb missing")
	}
	if _, ok := g.EdgeBetween(industrial, g.Lookup("boiler")); !ok {
		t.Error("plant#2 -> boiler missing")
	}
	if _, ok := g.EdgeBetween(organic, g.Lookup("boiler")); ok {
		t.Error("organic sense absorbed industrial child")
	}
}

func TestBuildVerticalLinks(t *testing.T) {
	res := Build(example3(), Config{})
	g := res.Graph
	organism := g.Lookup("organism")
	thing := g.Lookup("thing")
	organic := g.Lookup("plant#1")
	industrial := g.Lookup("plant#2")

	// Property 3 (single alignment): organism's plant slot resolves to the
	// organic sense only.
	if _, ok := g.EdgeBetween(organism, organic); !ok {
		t.Error("organism -> plant#1 missing")
	}
	if _, ok := g.EdgeBetween(organism, industrial); ok {
		t.Error("organism linked to industrial plants")
	}
	// Figure 3(b) (multiple alignment): thing's plant slot matches both.
	if _, ok := g.EdgeBetween(thing, organic); !ok {
		t.Error("thing -> plant#1 missing")
	}
	if _, ok := g.EdgeBetween(thing, industrial); !ok {
		t.Error("thing -> plant#2 missing")
	}
}

func TestBuildHorizontalMergeCounts(t *testing.T) {
	res := Build(example3(), Config{})
	// Sentences a and b merge (one horizontal op); c, d, e stay separate.
	if res.Stats.HorizontalOps != 1 {
		t.Errorf("horizontal ops = %d, want 1", res.Stats.HorizontalOps)
	}
	// Links: organism->plant#1, thing->plant#1, thing->plant#2.
	if res.Stats.VerticalOps != 3 {
		t.Errorf("vertical ops = %d, want 3", res.Stats.VerticalOps)
	}
	if res.Stats.MultiSense != 1 {
		t.Errorf("multi-sense labels = %d, want 1", res.Stats.MultiSense)
	}
}

func TestBuildAggregatesCounts(t *testing.T) {
	res := Build(example3(), Config{})
	g := res.Graph
	e, ok := g.EdgeBetween(g.Lookup("plant#1"), g.Lookup("tree"))
	if !ok || e.Count != 2 { // sentences a and b both said (plant, tree)
		t.Errorf("plant#1->tree = %+v ok=%v, want count 2", e, ok)
	}
}

func TestBuildSingleSenseKeepsBareLabel(t *testing.T) {
	groups := []extraction.Group{
		{Super: "animal", Subs: []string{"cat", "dog"}},
		{Super: "animal", Subs: []string{"cat", "dog", "horse"}},
		{Super: "organism", Subs: []string{"animal", "cat", "dog"}},
	}
	res := Build(groups, Config{})
	if !reflect.DeepEqual(res.Senses["animal"], []string{"animal"}) {
		t.Errorf("animal senses = %v", res.Senses["animal"])
	}
	g := res.Graph
	if _, ok := g.EdgeBetween(g.Lookup("organism"), g.Lookup("animal")); !ok {
		t.Error("organism -> animal missing")
	}
}

func TestBuildProducesDAG(t *testing.T) {
	// Mutually recursive evidence that would create a cycle must be refused.
	groups := []extraction.Group{
		{Super: "a", Subs: []string{"b", "x", "y"}},
		{Super: "b", Subs: []string{"a", "x", "y"}},
	}
	res := Build(groups, Config{})
	if _, err := res.Graph.Freeze().TopoLevels(); err != nil {
		t.Fatalf("graph has a cycle: %v", err)
	}
	if res.Stats.SkippedCycles == 0 {
		t.Error("no cycle was refused, expected at least one")
	}
}

func TestBuildEmptyAndDegenerate(t *testing.T) {
	res := Build(nil, Config{})
	if res.Graph.Freeze().NumNodes() != 0 {
		t.Error("empty input produced nodes")
	}
	res = Build([]extraction.Group{{Super: "", Subs: []string{"x"}}, {Super: "a"}}, Config{})
	if res.Graph.Freeze().NumNodes() != 0 {
		t.Error("degenerate groups produced nodes")
	}
}

func TestBuildMinSenseEvidence(t *testing.T) {
	groups := append(example3(),
		// A noise fragment sense of "plant" from a single bad sentence.
		extraction.Group{Super: "plant", Subs: []string{"weird thing", "odd item"}},
	)
	strict := Build(groups, Config{MinSenseEvidence: 3})
	if len(strict.Senses["plant"]) != 2 {
		t.Errorf("senses after dropping = %v", strict.Senses["plant"])
	}
	if strict.Stats.DroppedClusters != 1 {
		t.Errorf("dropped = %d, want 1", strict.Stats.DroppedClusters)
	}
	loose := Build(groups, Config{})
	if len(loose.Senses["plant"]) != 3 {
		t.Errorf("senses without dropping = %v", loose.Senses["plant"])
	}
}

func TestSenseLabel(t *testing.T) {
	if SenseLabel("plant", 0, 1) != "plant" {
		t.Error("single sense should keep bare label")
	}
	if SenseLabel("plant", 1, 2) != "plant#2" {
		t.Error("multi sense should suffix")
	}
}

func TestBuildParallelMatchesSerial(t *testing.T) {
	groups := append(example3(),
		extraction.Group{Super: "animal", Subs: []string{"cat", "dog"}},
		extraction.Group{Super: "animal", Subs: []string{"cat", "dog", "horse"}},
		extraction.Group{Super: "company", Subs: []string{"IBM", "Microsoft"}},
		extraction.Group{Super: "company", Subs: []string{"IBM", "Microsoft", "Google"}},
		extraction.Group{Super: "organism", Subs: []string{"animal", "cat", "dog"}},
	)
	serial := Build(groups, Config{Workers: 1})
	parallel := Build(groups, Config{Workers: 8})
	sg, pg := serial.Graph.Freeze(), parallel.Graph.Freeze()
	if sg.NumNodes() != pg.NumNodes() || sg.NumEdges() != pg.NumEdges() {
		t.Fatalf("shapes differ: %d/%d vs %d/%d", sg.NumNodes(), sg.NumEdges(), pg.NumNodes(), pg.NumEdges())
	}
	if serial.Stats.HorizontalOps != parallel.Stats.HorizontalOps {
		t.Errorf("hops differ: %d vs %d", serial.Stats.HorizontalOps, parallel.Stats.HorizontalOps)
	}
	for id := 0; id < sg.NumNodes(); id++ {
		label := serial.Graph.Label(graph.NodeID(id))
		if parallel.Graph.Lookup(label) == graph.NoNode {
			t.Errorf("parallel build missing node %q", label)
		}
	}
}

package graph

import (
	"reflect"
	"testing"
)

// diamond builds: thing -> {animal, company}; animal -> {cat, dog};
// company -> {IBM}; pet -> {cat}.
func diamond() (*Builder, map[string]NodeID) {
	s := NewBuilder()
	ids := map[string]NodeID{}
	for _, l := range []string{"thing", "animal", "company", "pet", "cat", "dog", "IBM"} {
		ids[l] = s.Intern(l)
	}
	s.AddEdge(ids["thing"], ids["animal"], 5, 0.9)
	s.AddEdge(ids["thing"], ids["company"], 4, 0.9)
	s.AddEdge(ids["animal"], ids["cat"], 10, 0.95)
	s.AddEdge(ids["animal"], ids["dog"], 8, 0.95)
	s.AddEdge(ids["company"], ids["IBM"], 7, 0.99)
	s.AddEdge(ids["pet"], ids["cat"], 3, 0.8)
	return s, ids
}

func TestInternAndLookup(t *testing.T) {
	s := NewBuilder()
	a := s.Intern("alpha")
	if got := s.Intern("alpha"); got != a {
		t.Error("re-intern returned different id")
	}
	if s.Lookup("alpha") != a {
		t.Error("lookup failed")
	}
	if s.Lookup("missing") != NoNode {
		t.Error("missing label found")
	}
	if s.Label(a) != "alpha" {
		t.Error("label mismatch")
	}
	if len(s.labels) != 1 {
		t.Errorf("%d nodes, want 1", len(s.labels))
	}
}

func TestAddEdgeAccumulates(t *testing.T) {
	s := NewBuilder()
	a, b := s.Intern("a"), s.Intern("b")
	s.AddEdge(a, b, 2, 0)
	s.AddEdge(a, b, 3, 0.5)
	e, ok := s.EdgeBetween(a, b)
	if !ok || e.Count != 5 || e.Plausibility != 0.5 {
		t.Errorf("edge = %+v ok=%v", e, ok)
	}
	if n := s.Freeze().NumEdges(); n != 1 {
		t.Errorf("NumEdges = %d", n)
	}
	// in-edge mirrors out-edge
	par := s.in[b]
	if len(par) != 1 || par[0].To != a || par[0].Count != 5 {
		t.Errorf("parents = %+v", par)
	}
}

func TestKindRootsConceptsInstances(t *testing.T) {
	b, ids := diamond()
	s := b.Freeze()
	if s.Kind(ids["animal"]) != KindConcept || s.Kind(ids["cat"]) != KindInstance {
		t.Error("Kind misclassifies")
	}
	roots := s.Roots()
	if len(roots) != 2 || s.Label(roots[0]) != "pet" || s.Label(roots[1]) != "thing" {
		got := make([]string, len(roots))
		for i, r := range roots {
			got[i] = s.Label(r)
		}
		t.Errorf("roots = %v", got)
	}
	if len(s.Concepts()) != 4 {
		t.Errorf("concepts = %d, want 4", len(s.Concepts()))
	}
	if len(s.Instances()) != 3 {
		t.Errorf("instances = %d, want 3", len(s.Instances()))
	}
}

func TestTraversals(t *testing.T) {
	b, ids := diamond()
	s := b.Freeze()
	desc := s.Descendants(ids["thing"])
	if len(desc) != 5 {
		t.Errorf("descendants of thing = %d, want 5", len(desc))
	}
	anc := s.Ancestors(ids["cat"])
	labels := map[string]bool{}
	for _, a := range anc {
		labels[s.Label(a)] = true
	}
	if !labels["animal"] || !labels["pet"] || !labels["thing"] {
		t.Errorf("ancestors of cat = %v", labels)
	}
	if !s.HasPath(ids["thing"], ids["cat"]) {
		t.Error("path thing->cat missing")
	}
	if s.HasPath(ids["cat"], ids["thing"]) {
		t.Error("reverse path found")
	}
	if !s.HasPath(ids["cat"], ids["cat"]) {
		t.Error("self path missing")
	}
}

func TestTopoLevelsAndLevel(t *testing.T) {
	b, ids := diamond()
	s := b.Freeze()
	levels, err := s.TopoLevels()
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 3 {
		t.Fatalf("levels = %d, want 3", len(levels))
	}
	if got := len(levels[0]); got != 2 { // pet, thing
		t.Errorf("level 1 size = %d", got)
	}
	depth, err := s.Level()
	if err != nil {
		t.Fatal(err)
	}
	if depth[ids["cat"]] != 0 || depth[ids["animal"]] != 1 || depth[ids["thing"]] != 2 {
		t.Errorf("depths: cat=%d animal=%d thing=%d", depth[ids["cat"]], depth[ids["animal"]], depth[ids["thing"]])
	}
}

func TestTopoLevelsDetectsCycle(t *testing.T) {
	s := NewBuilder()
	a, b := s.Intern("a"), s.Intern("b")
	s.AddEdge(a, b, 1, 0)
	s.AddEdge(b, a, 1, 0)
	if !s.HasPath(a, b) || !s.HasPath(b, a) {
		t.Error("cycle probe missed the back edge")
	}
	f := s.Freeze()
	if _, err := f.TopoLevels(); err == nil {
		t.Error("cycle not detected")
	}
	if _, err := f.Level(); err == nil {
		t.Error("Level on cyclic graph should fail")
	}
}

func TestEdgeBetweenMissing(t *testing.T) {
	s, ids := diamond()
	if _, ok := s.EdgeBetween(ids["cat"], ids["thing"]); ok {
		t.Error("found nonexistent edge")
	}
}

func TestDescendantsOfLeafEmpty(t *testing.T) {
	s, ids := diamond()
	if d := s.Freeze().Descendants(ids["IBM"]); len(d) != 0 {
		t.Errorf("leaf descendants = %v", d)
	}
}

func TestDiamondDedup(t *testing.T) {
	// a -> b, a -> c, b -> d, c -> d: d appears once in Descendants(a).
	s := NewBuilder()
	a, b, c, d := s.Intern("a"), s.Intern("b"), s.Intern("c"), s.Intern("d")
	s.AddEdge(a, b, 1, 0)
	s.AddEdge(a, c, 1, 0)
	s.AddEdge(b, d, 1, 0)
	s.AddEdge(c, d, 1, 0)
	f := s.Freeze()
	if got := f.Descendants(a); len(got) != 3 {
		t.Errorf("descendants = %d, want 3", len(got))
	}
	if got := f.Ancestors(d); len(got) != 3 {
		t.Errorf("ancestors = %d, want 3", len(got))
	}
	if !reflect.DeepEqual(f.Roots(), []NodeID{a}) {
		t.Errorf("roots = %v", f.Roots())
	}
}

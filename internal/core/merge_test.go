package core

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/corpus"
	"repro/internal/graph"
)

func TestMergeFreebaseInstances(t *testing.T) {
	pb, w := buildFixture(t, 10000)
	fb := baseline.NewFreebaseRef(corpus.DefaultWorld(1))

	before := len(pb.Graph.Instances())
	merged, err := pb.Merge(fb.Graph)
	if err != nil {
		t.Fatal(err)
	}
	after := len(merged.Graph.Instances())
	if after <= before {
		t.Errorf("merge added no instances: %d -> %d", before, after)
	}
	// The original is untouched.
	if len(pb.Graph.Instances()) != before {
		t.Error("merge mutated the original graph")
	}
	// Every Freebase instance is now reachable under its concept.
	missing := 0
	for _, inst := range fb.Instances {
		if merged.Graph.Lookup(inst) == graph.NoNode {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("%d Freebase instances missing after merge", missing)
	}
	// Typicality queries keep working and see the merged mass.
	top := merged.InstancesOf("companies", 20)
	if len(top) == 0 {
		t.Fatal("merged taxonomy lost company instances")
	}
	// Plausibility on a merged-only pair falls back to reachability.
	var mergedOnly string
	for _, inst := range fb.Instances {
		if w.IsTrueIsA("companies", inst) && pb.Store.Count("company", inst) == 0 {
			mergedOnly = inst
			break
		}
	}
	if mergedOnly != "" {
		if got := merged.Plausibility("companies", mergedOnly); got <= 0 {
			t.Errorf("plausibility of merged-only pair (company, %s) = %v", mergedOnly, got)
		}
	}
}

func TestMergeIsDAGSafe(t *testing.T) {
	pb, _ := buildFixture(t, 8000)
	// An adversarial source that tries to invert an existing edge.
	adv := graph.NewBuilder()
	cat := adv.Intern("cat")
	animal := adv.Intern("animal")
	adv.AddEdge(cat, animal, 5, 0.9) // cat -> animal would close a cycle
	merged, err := pb.Merge(adv.Freeze())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := merged.Graph.TopoLevels(); err != nil {
		t.Fatalf("merge produced a cycle: %v", err)
	}
}

func TestMergeEmptySource(t *testing.T) {
	pb, _ := buildFixture(t, 8000)
	merged, err := pb.Merge(graph.NewBuilder().Freeze())
	if err != nil {
		t.Fatal(err)
	}
	if merged.Graph.NumNodes() != pb.Graph.NumNodes() || merged.Graph.NumEdges() != pb.Graph.NumEdges() {
		t.Error("empty merge changed the graph")
	}
}

// TestMergeReannotates: with a live evidence model, the merged graph's
// edges carry freshly computed plausibilities — an imported edge that
// duplicates a Γ-known pair is rescored by the model, while pairs
// unknown to Γ keep the plausibility the source shipped.
func TestMergeReannotates(t *testing.T) {
	pb, _ := buildFixture(t, 8000)

	// Find a real edge of the built taxonomy whose pair is in Γ.
	var fromLabel, toLabel string
	var want float64
	for _, c := range pb.Graph.Concepts() {
		x := BaseLabel(pb.Graph.Label(c))
		for _, e := range pb.Graph.Children(c) {
			y := BaseLabel(pb.Graph.Label(e.To))
			if e.Plausibility > 0 && pb.Store.Count(x, y) > 0 {
				fromLabel, toLabel = pb.Graph.Label(c), pb.Graph.Label(e.To)
				want = e.Plausibility
				break
			}
		}
		if fromLabel != "" {
			break
		}
	}
	if fromLabel == "" {
		t.Fatal("no annotated edge with Γ backing found")
	}

	src := graph.NewBuilder()
	// Duplicate the known pair with a bogus imported plausibility...
	src.AddEdge(src.Intern(BaseLabel(fromLabel)), src.Intern(toLabel), 1, 0.123)
	// ...and bring one pair Γ knows nothing about.
	src.AddEdge(src.Intern("martian vehicle"), src.Intern("rover x-99"), 3, 0.777)

	merged, err := pb.Merge(src.Freeze())
	if err != nil {
		t.Fatal(err)
	}
	from, to := merged.Graph.Lookup(fromLabel), merged.Graph.Lookup(toLabel)
	e, ok := merged.Graph.EdgeBetween(from, to)
	if !ok {
		t.Fatal("merged edge vanished")
	}
	if e.Plausibility != want {
		t.Errorf("Γ-known edge plausibility = %v after merge, want model value %v", e.Plausibility, want)
	}
	mf, mt := merged.Graph.Lookup("martian vehicle"), merged.Graph.Lookup("rover x-99")
	if me, ok := merged.Graph.EdgeBetween(mf, mt); !ok || me.Plausibility != 0.777 {
		t.Errorf("imported-only edge = %+v, want stored plausibility 0.777", me)
	}
}

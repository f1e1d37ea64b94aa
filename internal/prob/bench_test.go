package prob

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/kb"
)

func benchTaxonomy() *graph.Frozen {
	rng := rand.New(rand.NewSource(1))
	g := graph.NewBuilder()
	root := g.Intern("thing")
	for c := 0; c < 60; c++ {
		concept := g.Intern(fmt.Sprintf("concept%d", c))
		g.AddEdge(root, concept, int64(rng.Intn(10)+1), 0.9)
		for s := 0; s < 3; s++ {
			sub := g.Intern(fmt.Sprintf("concept%d/sub%d", c, s))
			g.AddEdge(concept, sub, int64(rng.Intn(8)+1), 0.9)
			for i := 0; i < 20; i++ {
				inst := g.Intern(fmt.Sprintf("inst%d-%d-%d", c, s, i))
				g.AddEdge(sub, inst, int64(rng.Intn(30)+1), 0.95)
				if rng.Intn(3) == 0 {
					g.AddEdge(concept, inst, int64(rng.Intn(30)+1), 0.95)
				}
			}
		}
	}
	return g.Freeze()
}

// layeredBenchGraph builds a deep layered DAG whose wide topological
// levels are the axis the Algorithm 3 DP parallelizes over.
func layeredBenchGraph(levels, width int) *graph.Frozen {
	rng := rand.New(rand.NewSource(7))
	g := graph.NewBuilder()
	prev := []graph.NodeID{g.Intern("root")}
	for l := 0; l < levels; l++ {
		cur := make([]graph.NodeID, width)
		for i := range cur {
			cur[i] = g.Intern(fmt.Sprintf("l%dn%d", l, i))
			parents := 3
			if parents > len(prev) {
				parents = len(prev)
			}
			for p := 0; p < parents; p++ {
				g.AddEdge(prev[rng.Intn(len(prev))], cur[i], int64(rng.Intn(9)+1), 0.9)
			}
		}
		prev = cur
	}
	return g.Freeze()
}

// BenchmarkAlg3 measures the reachability DP at several worker counts;
// the CI bench-compare job asserts the multi-worker runs get faster on
// a multi-core runner (the reach table stays byte-identical either way).
func BenchmarkAlg3(b *testing.B) {
	g := layeredBenchGraph(7, 160)
	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := New(g, Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkNewTypicality(b *testing.B) {
	g := benchTaxonomy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewTypicality(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInstancesOf(b *testing.B) {
	g := benchTaxonomy()
	ty, err := NewTypicality(g)
	if err != nil {
		b.Fatal(err)
	}
	ids := g.Concepts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ty.InstancesOf(ids[i%len(ids)])
	}
}

func BenchmarkConceptsOf(b *testing.B) {
	g := benchTaxonomy()
	ty, err := NewTypicality(g)
	if err != nil {
		b.Fatal(err)
	}
	insts := g.Instances()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ty.ConceptsOf(insts[i%len(insts)])
	}
}

func BenchmarkPlausibility(b *testing.B) {
	s := kb.NewStore(32)
	for i := 0; i < 5000; i++ {
		x := fmt.Sprintf("c%d", i%50)
		y := fmt.Sprintf("i%d", i%1000)
		s.Add(x, y, 1)
		s.AddEvidence(x, y, kb.Evidence{Pattern: i%6 + 1, PageScore: 0.5, ListLen: 3, Pos: i%4 + 1})
	}
	m := Train(s, func(x, y string) (bool, bool) { return len(y)%2 == 0, true })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Plausibility(fmt.Sprintf("c%d", i%50), fmt.Sprintf("i%d", i%1000))
	}
}

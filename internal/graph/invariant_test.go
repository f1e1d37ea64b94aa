package graph

import (
	"math/rand"
	"testing"
)

// TestAddEdgeMirrorRegression pins the historical AddEdge bug: after an
// out-edge already existed, an update arriving when the matching
// in-edge was absent returned without touching `in`, so the two
// directions drifted apart. With the unconditional dual upsert the
// mirror can no longer be skipped.
func TestAddEdgeMirrorRegression(t *testing.T) {
	s := NewBuilder()
	a, b := s.Intern("a"), s.Intern("b")
	s.AddEdge(a, b, 2, 0)
	s.AddEdge(a, b, 3, 0.7) // the update path that used to be able to bail out
	assertMirror(t, s)
	e, ok := s.EdgeBetween(a, b)
	if !ok || e.Count != 5 || e.Plausibility != 0.7 {
		t.Fatalf("out edge = %+v ok=%v", e, ok)
	}
	in := s.in[b]
	if len(in) != 1 || in[0].Count != 5 || in[0].Plausibility != 0.7 {
		t.Fatalf("in edge = %+v — transpose did not receive the update", in)
	}
}

// TestAddEdgeMirrorInvariantRandom hammers AddEdge with random inserts
// and updates and asserts after every operation that `in` is exactly
// the transpose of `out` and both stay sorted.
func TestAddEdgeMirrorInvariantRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := NewBuilder()
	const nodes = 20
	for i := 0; i < nodes; i++ {
		s.Intern(string(rune('a' + i)))
	}
	for op := 0; op < 500; op++ {
		from := NodeID(rng.Intn(nodes))
		to := NodeID(rng.Intn(nodes))
		var p float64
		if rng.Intn(2) == 0 {
			p = rng.Float64()
		}
		s.AddEdge(from, to, int64(rng.Intn(10)+1), p)
	}
	assertMirror(t, s)
}

// assertMirror checks the AddEdge invariant: in is the exact transpose
// of out (same counts and plausibilities), and every adjacency row is
// strictly To-sorted.
func assertMirror(t *testing.T, s *Builder) {
	t.Helper()
	type key struct{ from, to NodeID }
	out := map[key]Edge{}
	for id, row := range s.out {
		for i, e := range row {
			if i > 0 && row[i-1].To >= e.To {
				t.Fatalf("out row of node %d not strictly sorted: %v", id, row)
			}
			out[key{NodeID(id), e.To}] = e
		}
	}
	seen := 0
	for id, row := range s.in {
		for i, e := range row {
			if i > 0 && row[i-1].To >= e.To {
				t.Fatalf("in row of node %d not strictly sorted: %v", id, row)
			}
			o, ok := out[key{e.To, NodeID(id)}]
			if !ok {
				t.Fatalf("in edge %d<-%d has no out counterpart", id, e.To)
			}
			if o.Count != e.Count || o.Plausibility != e.Plausibility {
				t.Fatalf("edge %d->%d disagrees across directions: out %+v, in %+v", e.To, id, o, e)
			}
			seen++
		}
	}
	if seen != len(out) {
		t.Fatalf("edge counts disagree: %d out edges, %d in edges", len(out), seen)
	}
}

// TestTraversalAllocations pins the allocation contract of the
// traversals: HasPath (Builder's cycle probe and Frozen's) allocates
// nothing and Frozen's closures allocate only their result slice
// (amortised over the pooled scratch).
func TestTraversalAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	b := randomDAG(200, 600, 5)
	f := b.Freeze()
	root := NodeID(0)
	leaf := NodeID(199)
	// Warm the pools so steady-state is measured, not first use.
	for i := 0; i < 4; i++ {
		b.HasPath(root, leaf)
		f.Descendants(root)
		f.HasPath(root, leaf)
	}
	// Limits leave headroom for a rare GC evicting the sync.Pool mid-run;
	// steady state is 0 allocs for HasPath and 1 (the result) for the
	// closures.
	cases := []struct {
		name string
		max  float64
		fn   func()
	}{
		{"Builder.HasPath", 0.1, func() { b.HasPath(root, leaf) }},
		{"Frozen.HasPath", 0.1, func() { f.HasPath(root, leaf) }},
		{"Frozen.Descendants", 1.1, func() { f.Descendants(root) }},
		{"Frozen.Ancestors", 1.1, func() { f.Ancestors(leaf) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(100, tc.fn); got > tc.max {
				t.Errorf("%s allocates %.1f per run, want <= %.0f", tc.name, got, tc.max)
			}
		})
	}
}

package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// benchGraph builds a layered DAG: 50 roots -> 500 mid concepts -> 5000
// leaves, roughly the shape of a built taxonomy.
func benchGraph() *Builder {
	rng := rand.New(rand.NewSource(1))
	s := NewBuilder()
	var roots, mids, leaves []NodeID
	for i := 0; i < 50; i++ {
		roots = append(roots, s.Intern(fmt.Sprintf("root%d", i)))
	}
	for i := 0; i < 500; i++ {
		mids = append(mids, s.Intern(fmt.Sprintf("mid%d", i)))
	}
	for i := 0; i < 5000; i++ {
		leaves = append(leaves, s.Intern(fmt.Sprintf("leaf%d", i)))
	}
	for _, m := range mids {
		s.AddEdge(roots[rng.Intn(len(roots))], m, int64(rng.Intn(20)+1), rng.Float64())
	}
	for _, l := range leaves {
		s.AddEdge(mids[rng.Intn(len(mids))], l, int64(rng.Intn(20)+1), rng.Float64())
		if rng.Intn(4) == 0 {
			s.AddEdge(roots[rng.Intn(len(roots))], l, 1, rng.Float64())
		}
	}
	return s
}

func BenchmarkDescendants(b *testing.B) {
	f := benchGraph().Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Descendants(NodeID(i % 50))
	}
}

func BenchmarkSave(b *testing.B) {
	f := benchGraph().Freeze()
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := f.Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// benchGraphLarge is benchGraph scaled towards a realistic taxonomy:
// 200 roots -> 5000 mid concepts -> 100k leaves. At this size the
// working set no longer fits in L1/L2, which is the regime the frozen
// CSR layout is built for.
func benchGraphLarge() *Builder {
	rng := rand.New(rand.NewSource(3))
	s := NewBuilder()
	var roots, mids []NodeID
	for i := 0; i < 200; i++ {
		roots = append(roots, s.Intern(fmt.Sprintf("root%d", i)))
	}
	for i := 0; i < 5000; i++ {
		mids = append(mids, s.Intern(fmt.Sprintf("mid%d", i)))
	}
	for _, m := range mids {
		s.AddEdge(roots[rng.Intn(len(roots))], m, int64(rng.Intn(20)+1), rng.Float64())
	}
	for i := 0; i < 100000; i++ {
		l := s.Intern(fmt.Sprintf("leaf%d", i))
		s.AddEdge(mids[rng.Intn(len(mids))], l, int64(rng.Intn(20)+1), rng.Float64())
		if rng.Intn(4) == 0 {
			s.AddEdge(roots[rng.Intn(len(roots))], l, 1, rng.Float64())
		}
	}
	return s
}

// BenchmarkFrozenLookup measures label lookup over a mix of present
// and missing labels.
func BenchmarkFrozenLookup(b *testing.B) {
	f := benchGraphLarge().Freeze()
	labels := lookupMix(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Lookup(labels[i%len(labels)])
	}
}

// lookupMix samples present labels plus a few misses, the shape of
// query-time lookups.
func lookupMix(g *Frozen) []string {
	rng := rand.New(rand.NewSource(2))
	labels := make([]string, 0, 1024)
	for i := 0; i < 1024; i++ {
		if i%8 == 7 {
			labels = append(labels, fmt.Sprintf("miss%d", i))
			continue
		}
		labels = append(labels, g.Label(NodeID(rng.Intn(g.NumNodes()))))
	}
	return labels
}

// BenchmarkFrozenDescendants measures the closure traversal from the
// wide roots of the large graph.
func BenchmarkFrozenDescendants(b *testing.B) {
	f := benchGraphLarge().Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Descendants(NodeID(i % 200))
	}
}

// benchSnapshot is benchGraph's snapshot bytes.
func benchSnapshot(b *testing.B) []byte {
	var buf bytes.Buffer
	if err := benchGraph().Freeze().Save(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkLoadFrozen measures the copying loader: validate, decode the
// CSR arrays onto the heap, and derive the lookup tables.
func BenchmarkLoadFrozen(b *testing.B) {
	data := benchSnapshot(b)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadFrozen(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadMapped measures the zero-copy path on the same bytes
// BenchmarkLoadFrozen decodes: parseV3 validates the header and checksum
// and points the CSR arrays and label arena into the buffer instead of
// copying them out.
func BenchmarkLoadMapped(b *testing.B) {
	data := benchSnapshot(b)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := LoadMapped(data, nil)
		if err != nil {
			b.Fatal(err)
		}
		g.Close()
	}
}

// BenchmarkNewBuilderFrom measures the thaw cost a delta build pays to
// turn the previous frozen taxonomy back into a mutable Builder before
// extending it.
func BenchmarkNewBuilderFrom(b *testing.B) {
	fz := benchGraph().Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := NewBuilderFrom(fz); len(g.labels) != fz.NumNodes() {
			b.Fatal("thaw lost nodes")
		}
	}
}

// BenchmarkThawRefreeze is the full round trip: thaw, mutate nothing,
// refreeze — the fixed overhead of an incremental build that touches a
// vanishing fraction of the graph.
func BenchmarkThawRefreeze(b *testing.B) {
	fz := benchGraph().Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := NewBuilderFrom(fz).Freeze(); g.NumEdges() != fz.NumEdges() {
			b.Fatal("round trip lost edges")
		}
	}
}

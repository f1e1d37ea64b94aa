package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomDAG builds a layered random DAG big enough to exercise the hash
// lookup index and multi-level traversals, with edges only from lower
// to higher ids so it stays acyclic.
func randomDAG(nodes, edges int, seed int64) *Builder {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	for i := 0; i < nodes; i++ {
		b.Intern(fmt.Sprintf("node %04d", i))
	}
	for i := 0; i < edges; i++ {
		from := NodeID(rng.Intn(nodes - 1))
		to := from + 1 + NodeID(rng.Intn(nodes-int(from)-1))
		b.AddEdge(from, to, int64(rng.Intn(50)+1), float64(rng.Intn(100))/100)
	}
	return b
}

// TestFrozenMatchesBuilder: the frozen view of what a Builder was fed
// answers every read exactly as a naive reference over the same edges
// does — heap-loaded and memory-mapped alike, on fixed graphs and on
// random DAGs from sparse to dense.
func TestFrozenMatchesBuilder(t *testing.T) {
	type graphCase struct {
		name string
		b    *Builder
	}
	cases := []graphCase{
		{"diamond", func() *Builder { s, _ := diamond(); return s }()},
		{"random", randomDAG(300, 900, 1)},
		{"empty", NewBuilder()},
		{"edgeless", func() *Builder {
			b := NewBuilder()
			b.Intern("only")
			return b
		}()},
	}
	for seed := int64(0); seed < 20; seed++ {
		nodes := 2 + int(seed)*7
		cases = append(cases, graphCase{fmt.Sprintf("random%02d", seed), randomDAG(nodes, nodes*int(1+seed%4), seed)})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := refOf(tc.b)
			f := tc.b.Freeze()
			assertMatchesRef(t, ref, f)
			data := snapBytes(t, f)
			loaded, err := LoadFrozen(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesRef(t, ref, loaded)
			mapped, err := LoadMapped(data, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer mapped.Close()
			assertMatchesRef(t, ref, mapped)
		})
	}
}

// refGraph is a deliberately naive model of a taxonomy graph — edge
// maps, plain BFS, Kahn peeling and a memoised longest-path recursion —
// that shares no code with Frozen. It is the oracle Frozen's derived
// tables and traversals are checked against.
type refGraph struct {
	labels []string
	out    map[NodeID]map[NodeID]Edge
	in     map[NodeID]map[NodeID]Edge
}

// refOf copies a Builder's labels and out-edges into a refGraph.
func refOf(b *Builder) *refGraph { return newRef(b.labels, b.Children) }

// refOfFrozen copies a Frozen's labels and out-edges into a refGraph.
func refOfFrozen(f *Frozen) *refGraph {
	labels := make([]string, f.NumNodes())
	for id := range labels {
		labels[id] = f.Label(NodeID(id))
	}
	return newRef(labels, f.Children)
}

// newRef builds the reference from labels and out-edges; the in-edges
// are derived from the out-edges, independently of any stored
// transpose.
func newRef(labels []string, children func(NodeID) []Edge) *refGraph {
	r := &refGraph{
		labels: labels,
		out:    map[NodeID]map[NodeID]Edge{},
		in:     map[NodeID]map[NodeID]Edge{},
	}
	for id := range labels {
		from := NodeID(id)
		for _, e := range children(from) {
			if r.out[from] == nil {
				r.out[from] = map[NodeID]Edge{}
			}
			if r.in[e.To] == nil {
				r.in[e.To] = map[NodeID]Edge{}
			}
			r.out[from][e.To] = e
			r.in[e.To][from] = Edge{To: from, Count: e.Count, Plausibility: e.Plausibility}
		}
	}
	return r
}

// row returns an adjacency map's edges sorted by Edge.To.
func row(m map[NodeID]Edge) []Edge {
	var es []Edge
	for _, e := range m {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool { return es[i].To < es[j].To })
	return es
}

// bfs returns the nodes reachable from id (excluding id) in BFS order
// over the To-sorted rows of adj.
func (r *refGraph) bfs(id NodeID, adj map[NodeID]map[NodeID]Edge) []NodeID {
	seen := map[NodeID]bool{id: true}
	queue := []NodeID{id}
	var out []NodeID
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range row(adj[n]) {
			if !seen[e.To] {
				seen[e.To] = true
				queue = append(queue, e.To)
				out = append(out, e.To)
			}
		}
	}
	return out
}

func (r *refGraph) byLabel(ids []NodeID) []NodeID {
	sort.Slice(ids, func(i, j int) bool { return r.labels[ids[i]] < r.labels[ids[j]] })
	return ids
}

func (r *refGraph) filter(keep func(NodeID) bool) []NodeID {
	var ids []NodeID
	for id := range r.labels {
		if keep(NodeID(id)) {
			ids = append(ids, NodeID(id))
		}
	}
	return r.byLabel(ids)
}

// topoLevels peels zero-indegree nodes level by level (Kahn), sorting
// each level by label; ok is false when a cycle leaves nodes unplaced.
func (r *refGraph) topoLevels() (levels [][]NodeID, ok bool) {
	indeg := map[NodeID]int{}
	for id := range r.labels {
		indeg[NodeID(id)] = len(r.in[NodeID(id)])
	}
	placed := 0
	current := r.filter(func(id NodeID) bool { return indeg[id] == 0 })
	for len(current) > 0 {
		levels = append(levels, current)
		placed += len(current)
		var next []NodeID
		for _, n := range current {
			for to := range r.out[n] {
				if indeg[to]--; indeg[to] == 0 {
					next = append(next, to)
				}
			}
		}
		current = r.byLabel(next)
	}
	return levels, placed == len(r.labels)
}

// depth is the longest path from id down to a leaf, by memoised
// recursion; only called on acyclic graphs.
func (r *refGraph) depth(id NodeID, memo map[NodeID]int) int {
	if d, ok := memo[id]; ok {
		return d
	}
	best := 0
	for to := range r.out[id] {
		if d := r.depth(to, memo) + 1; d > best {
			best = d
		}
	}
	memo[id] = best
	return best
}

// assertMatchesRef exhaustively compares a Frozen against the reference
// model of the graph it claims to hold.
func assertMatchesRef(t *testing.T, ref *refGraph, got *Frozen) {
	t.Helper()
	n := len(ref.labels)
	edges := 0
	for _, m := range ref.out {
		edges += len(m)
	}
	if got.NumNodes() != n || got.NumEdges() != edges {
		t.Fatalf("shape: got %d/%d nodes/edges, want %d/%d", got.NumNodes(), got.NumEdges(), n, edges)
	}
	for id := 0; id < n; id++ {
		node := NodeID(id)
		label := ref.labels[id]
		if got.Label(node) != label {
			t.Fatalf("Label(%d) = %q, want %q", id, got.Label(node), label)
		}
		if got.Lookup(label) != node {
			t.Errorf("Lookup(%q) = %d, want %d", label, got.Lookup(label), id)
		}
		wantKind := KindInstance
		if len(ref.out[node]) > 0 {
			wantKind = KindConcept
		}
		if got.Kind(node) != wantKind {
			t.Errorf("Kind(%d) = %v, want %v", id, got.Kind(node), wantKind)
		}
		if want := row(ref.out[node]); !edgesEqual(got.Children(node), want) {
			t.Errorf("Children(%d) = %v, want %v", id, got.Children(node), want)
		}
		if want := row(ref.in[node]); !edgesEqual(got.Parents(node), want) {
			t.Errorf("Parents(%d) = %v, want %v", id, got.Parents(node), want)
		}
		if want := ref.bfs(node, ref.out); !idsEqual(got.Descendants(node), want) {
			t.Errorf("Descendants(%d) = %v, want %v", id, got.Descendants(node), want)
		}
		if want := ref.bfs(node, ref.in); !idsEqual(got.Ancestors(node), want) {
			t.Errorf("Ancestors(%d) = %v, want %v", id, got.Ancestors(node), want)
		}
	}
	if got.Lookup("no such label") != NoNode {
		t.Error("Lookup of unknown label != NoNode")
	}
	if want := ref.filter(func(id NodeID) bool { return len(ref.in[id]) == 0 }); !idsEqual(got.Roots(), want) {
		t.Errorf("Roots = %v, want %v", got.Roots(), want)
	}
	if want := ref.filter(func(id NodeID) bool { return len(ref.out[id]) > 0 }); !idsEqual(got.Concepts(), want) {
		t.Errorf("Concepts = %v, want %v", got.Concepts(), want)
	}
	if want := ref.filter(func(id NodeID) bool { return len(ref.out[id]) == 0 }); !idsEqual(got.Instances(), want) {
		t.Errorf("Instances = %v, want %v", got.Instances(), want)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200 && n > 0; i++ {
		x, y := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		ew, okw := ref.out[x][y]
		eg, okg := got.EdgeBetween(x, y)
		if okw != okg || ew != eg {
			t.Errorf("EdgeBetween(%d,%d) = %v/%v, want %v/%v", x, y, eg, okg, ew, okw)
		}
		want := x == y
		for _, d := range ref.bfs(x, ref.out) {
			want = want || d == y
		}
		if got.HasPath(x, y) != want {
			t.Errorf("HasPath(%d,%d) = %v, want %v", x, y, !want, want)
		}
	}
	levels, acyclic := ref.topoLevels()
	gotLevels, err := got.TopoLevels()
	if (err == nil) != acyclic || (acyclic && !reflect.DeepEqual(gotLevels, levels)) {
		t.Errorf("TopoLevels = %v/%v, want %v (acyclic=%v)", gotLevels, err, levels, acyclic)
	}
	gotDepth, err := got.Level()
	if (err == nil) != acyclic {
		t.Errorf("Level error = %v, want acyclic=%v", err, acyclic)
	}
	if acyclic {
		memo := map[NodeID]int{}
		for id := 0; id < n; id++ {
			if want := ref.depth(NodeID(id), memo); gotDepth[id] != want {
				t.Errorf("Level[%d] = %d, want %d", id, gotDepth[id], want)
			}
		}
	}
}

func edgesEqual(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func idsEqual(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFrozenLookupWithoutIndex pins the binary-search fallback: below
// lookupIndexMin nodes no hash index is built, and Lookup must still
// answer through the sorted label table.
func TestFrozenLookupWithoutIndex(t *testing.T) {
	s, _ := diamond()
	f := s.Freeze()
	if f.idx != nil {
		t.Fatalf("tiny graph built a hash index (%d nodes >= %d?)", f.NumNodes(), lookupIndexMin)
	}
	for id := range s.labels {
		label := s.Label(NodeID(id))
		if got := f.Lookup(label); got != NodeID(id) {
			t.Errorf("Lookup(%q) = %d, want %d", label, got, id)
		}
	}
	if f.Lookup("zzz") != NoNode || f.Lookup("") != NoNode {
		t.Error("unknown labels must return NoNode")
	}
}

// TestFrozenLookupWithIndex pins the hash-index fast path on a graph
// large enough to build one.
func TestFrozenLookupWithIndex(t *testing.T) {
	b := randomDAG(100, 200, 2)
	f := b.Freeze()
	if f.idx == nil {
		t.Fatal("expected a hash index on a 100-node graph")
	}
	for id := range b.labels {
		label := b.Label(NodeID(id))
		if got := f.Lookup(label); got != NodeID(id) {
			t.Errorf("Lookup(%q) = %d, want %d", label, got, id)
		}
	}
	if f.Lookup("node 9999") != NoNode {
		t.Error("unknown label must return NoNode")
	}
}

// TestFreezeIsolation: mutating the builder after Freeze must not leak
// into the frozen view.
func TestFreezeIsolation(t *testing.T) {
	s, ids := diamond()
	f := s.Freeze()
	nodes, edges := f.NumNodes(), f.NumEdges()
	s.AddEdge(ids["pet"], s.Intern("goldfish"), 1, 0.5)
	s.AddEdge(ids["animal"], ids["cat"], 100, 0)
	if f.NumNodes() != nodes || f.NumEdges() != edges {
		t.Fatalf("frozen view changed shape after builder mutation: %d/%d -> %d/%d",
			nodes, edges, f.NumNodes(), f.NumEdges())
	}
	if e, _ := f.EdgeBetween(ids["animal"], ids["cat"]); e.Count != 10 {
		t.Errorf("frozen edge count = %d, want the pre-mutation 10", e.Count)
	}
}

// TestThawRoundTrip: Builder -> Frozen -> Builder preserves the graph
// and yields an independent, mutable copy.
func TestThawRoundTrip(t *testing.T) {
	orig := randomDAG(50, 120, 3)
	f := orig.Freeze()
	thawed := NewBuilderFrom(f)
	assertMatchesRef(t, refOf(orig), thawed.Freeze())
	// The thaw is independent of the frozen view...
	thawed.AddEdge(thawed.Intern("brand new"), 0, 1, 0)
	if f.NumNodes() == len(thawed.labels) {
		t.Error("thawed builder mutation leaked into frozen view")
	}
	// ...and mutable in the usual way.
	if thawed.Lookup("brand new") == NoNode {
		t.Error("thawed builder did not intern")
	}
}

// TestFrozenCycleError: freezing a cyclic graph succeeds (CSR does not
// care), but TopoLevels/Level must report the cycle.
func TestFrozenCycleError(t *testing.T) {
	b := NewBuilder()
	x, y := b.Intern("x"), b.Intern("y")
	b.AddEdge(x, y, 1, 0)
	b.AddEdge(y, x, 1, 0)
	f := b.Freeze()
	if _, err := f.TopoLevels(); err == nil {
		t.Error("frozen TopoLevels on cyclic graph should fail")
	}
	if _, err := f.Level(); err == nil {
		t.Error("frozen Level on cyclic graph should fail")
	}
	// Traversals still work on cyclic graphs.
	if !f.HasPath(x, x) || len(f.Descendants(x)) != 1 {
		t.Error("cyclic traversals broken")
	}
}

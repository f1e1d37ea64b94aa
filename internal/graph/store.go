package graph

import (
	"sort"
	"strings"
	"sync"
)

// Builder is the mutable graph store the construction pipeline writes
// into. Adjacency lists are kept sorted by Edge.To at all times, which
// turns the edge upsert and EdgeBetween into binary searches and gives
// Freeze a layout it can copy verbatim into the CSR arrays. The zero
// value is not usable; call NewBuilder.
//
// Builder is write-side only: it answers the lookups and cycle probes
// construction needs, and Freeze hands the finished graph to the read
// path. Reads are safe for concurrent use with each other; mutations
// (Intern, AddEdge) require external synchronisation and must not race
// with reads.
type Builder struct {
	labels  []string
	byLabel map[string]NodeID
	out     [][]Edge
	in      [][]Edge

	scratch sync.Pool // *bfsScratch, reused across traversals
}

// NewBuilder returns an empty mutable graph store.
func NewBuilder() *Builder {
	return &Builder{byLabel: make(map[string]NodeID)}
}

// NewBuilderFrom returns a mutable copy of a frozen graph — the thaw
// direction of Builder.Freeze, used when edges must be added to an
// already-frozen taxonomy (merging). Frozen rows are sorted by Edge.To,
// so the copied rows are valid Builder rows as-is. Labels are copied
// out of the source: a mapped Frozen's Label returns zero-copy views
// into the mmap arena, which dangle once the mapping closes, and the
// thawed Builder must outlive the source.
func NewBuilderFrom(r *Frozen) *Builder {
	b := NewBuilder()
	n := r.NumNodes()
	for id := 0; id < n; id++ {
		b.Intern(strings.Clone(r.Label(NodeID(id))))
	}
	for id := 0; id < n; id++ {
		b.out[id] = append([]Edge(nil), r.Children(NodeID(id))...)
		b.in[id] = append([]Edge(nil), r.Parents(NodeID(id))...)
	}
	return b
}

// Intern returns the node for the label, creating it if needed.
func (b *Builder) Intern(label string) NodeID {
	if id, ok := b.byLabel[label]; ok {
		return id
	}
	id := NodeID(len(b.labels))
	b.labels = append(b.labels, label)
	b.byLabel[label] = id
	b.out = append(b.out, nil)
	b.in = append(b.in, nil)
	return id
}

// Lookup returns the node for the label, or NoNode.
func (b *Builder) Lookup(label string) NodeID {
	if id, ok := b.byLabel[label]; ok {
		return id
	}
	return NoNode
}

// Label returns the label of a node.
func (b *Builder) Label(id NodeID) string { return b.labels[id] }

// upsertEdge inserts or accumulates an edge in a To-sorted adjacency
// row: counts add up, a non-zero plausibility overwrites.
func upsertEdge(adj []Edge, to NodeID, count int64, plausibility float64) []Edge {
	i := sort.Search(len(adj), func(k int) bool { return adj[k].To >= to })
	if i < len(adj) && adj[i].To == to {
		adj[i].Count += count
		if plausibility != 0 {
			adj[i].Plausibility = plausibility
		}
		return adj
	}
	adj = append(adj, Edge{})
	copy(adj[i+1:], adj[i:])
	adj[i] = Edge{To: to, Count: count, Plausibility: plausibility}
	return adj
}

// AddEdge inserts or accumulates the edge (from -> to). Counts add up;
// a non-zero plausibility overwrites. Both adjacency directions go
// through the same upsert on every call, so out and in cannot drift
// apart (historically, an existing out-edge with no matching in-edge
// returned early and left the transpose stale).
func (b *Builder) AddEdge(from, to NodeID, count int64, plausibility float64) {
	b.out[from] = upsertEdge(b.out[from], to, count, plausibility)
	b.in[to] = upsertEdge(b.in[to], from, count, plausibility)
}

// EdgeBetween returns the edge from -> to.
func (b *Builder) EdgeBetween(from, to NodeID) (Edge, bool) {
	adj := b.out[from]
	i := sort.Search(len(adj), func(k int) bool { return adj[k].To >= to })
	if i < len(adj) && adj[i].To == to {
		return adj[i], true
	}
	return Edge{}, false
}

// Children returns the out-edges of a node, sorted by Edge.To.
func (b *Builder) Children(id NodeID) []Edge { return b.out[id] }

// Concepts returns all concept nodes, sorted by label.
func (b *Builder) Concepts() []NodeID {
	var out []NodeID
	for id, row := range b.out {
		if len(row) > 0 {
			out = append(out, NodeID(id))
		}
	}
	sort.Slice(out, func(i, j int) bool { return b.labels[out[i]] < b.labels[out[j]] })
	return out
}

// bfsScratch is the reusable traversal state for Builder.HasPath. The
// visited slice is keyed by NodeID and stamped with an epoch instead of
// being cleared between runs. Pooled so concurrent probes each get
// their own.
type bfsScratch struct {
	visited []uint32
	epoch   uint32
	queue   []NodeID
}

func (sc *bfsScratch) reset(n int) {
	if len(sc.visited) < n {
		sc.visited = make([]uint32, n)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // epoch wrapped: stale stamps could collide, clear
		for i := range sc.visited {
			sc.visited[i] = 0
		}
		sc.epoch = 1
	}
	sc.queue = sc.queue[:0]
}

func (sc *bfsScratch) seen(id NodeID) bool { return sc.visited[id] == sc.epoch }
func (sc *bfsScratch) mark(id NodeID)      { sc.visited[id] = sc.epoch }

func (b *Builder) getScratch() *bfsScratch {
	if sc, ok := b.scratch.Get().(*bfsScratch); ok {
		return sc
	}
	return &bfsScratch{}
}

// HasPath reports whether to is reachable from from along out-edges.
func (b *Builder) HasPath(from, to NodeID) bool {
	if from == to {
		return true
	}
	sc := b.getScratch()
	sc.reset(len(b.labels))
	sc.mark(from)
	sc.queue = append(sc.queue, from)
	found := false
	for head := 0; head < len(sc.queue) && !found; head++ {
		for _, e := range b.out[sc.queue[head]] {
			if e.To == to {
				found = true
				break
			}
			if !sc.seen(e.To) {
				sc.mark(e.To)
				sc.queue = append(sc.queue, e.To)
			}
		}
	}
	b.scratch.Put(sc)
	return found
}

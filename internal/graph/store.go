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
// Reads (the Reader methods) are safe for concurrent use with each
// other; mutations (Intern, AddEdge) require external synchronisation
// and must not race with reads.
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

// NewBuilderFrom returns a mutable copy of any Reader — the thaw
// direction of Builder.Freeze, used when edges must be added to an
// already-frozen taxonomy (merging, delta builds). Both implementations
// keep adjacency sorted by Edge.To, so the copied rows are valid Builder
// rows as-is. Labels are copied out of the source: a mapped Frozen's
// Label returns zero-copy views into the mmap arena, which dangle once
// the mapping closes, and the thawed Builder must outlive the source.
func NewBuilderFrom(r Reader) *Builder {
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

// Clone returns a deep copy of the store.
func (b *Builder) Clone() *Builder { return NewBuilderFrom(b) }

// Lookup returns the node for the label, or NoNode.
func (b *Builder) Lookup(label string) NodeID {
	if id, ok := b.byLabel[label]; ok {
		return id
	}
	return NoNode
}

// Label returns the label of a node.
func (b *Builder) Label(id NodeID) string { return b.labels[id] }

// NumNodes returns the node count.
func (b *Builder) NumNodes() int { return len(b.labels) }

// NumEdges returns the edge count.
func (b *Builder) NumEdges() int {
	n := 0
	for _, es := range b.out {
		n += len(es)
	}
	return n
}

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

// Parents returns the in-edges of a node (Edge.To is the parent),
// sorted by Edge.To.
func (b *Builder) Parents(id NodeID) []Edge { return b.in[id] }

// Kind classifies the node: out-edges make a concept, none an instance.
func (b *Builder) Kind(id NodeID) Kind {
	if len(b.out[id]) > 0 {
		return KindConcept
	}
	return KindInstance
}

// Roots returns all nodes without parents, sorted by label.
func (b *Builder) Roots() []NodeID { return rootsOf(b) }

// Concepts returns all concept nodes, sorted by label.
func (b *Builder) Concepts() []NodeID { return conceptsOf(b) }

// Instances returns all instance (leaf) nodes, sorted by label.
func (b *Builder) Instances() []NodeID { return instancesOf(b) }

// bfsScratch is the reusable traversal state for Builder BFS. The
// visited slice is keyed by NodeID and stamped with an epoch instead of
// being cleared between runs; the queue doubles as the visit-order
// record. Pooled so concurrent readers each get their own.
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

// closure runs a BFS from id over the given adjacency and returns the
// visited nodes excluding id, in visit order.
func (b *Builder) closure(id NodeID, adj [][]Edge) []NodeID {
	sc := b.getScratch()
	sc.reset(len(b.labels))
	sc.mark(id)
	sc.queue = append(sc.queue, id)
	for head := 0; head < len(sc.queue); head++ {
		for _, e := range adj[sc.queue[head]] {
			if !sc.seen(e.To) {
				sc.mark(e.To)
				sc.queue = append(sc.queue, e.To)
			}
		}
	}
	var out []NodeID
	if len(sc.queue) > 1 {
		out = make([]NodeID, len(sc.queue)-1)
		copy(out, sc.queue[1:])
	}
	b.scratch.Put(sc)
	return out
}

// Descendants returns the descendant closure of id (excluding id),
// deduplicated, in BFS order.
func (b *Builder) Descendants(id NodeID) []NodeID { return b.closure(id, b.out) }

// Ancestors returns the ancestor closure of id (excluding id) in BFS
// order.
func (b *Builder) Ancestors(id NodeID) []NodeID { return b.closure(id, b.in) }

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

// TopoLevels partitions the nodes into the levels of Algorithm 3:
// L1 holds nodes with no parents; L(k) holds nodes all of whose parents
// lie in L1..L(k-1). An error is returned when the graph has a cycle.
func (b *Builder) TopoLevels() ([][]NodeID, error) { return topoLevels(b) }

// Level returns, for every node, the length of the longest path from the
// node down to a leaf — the paper's definition of a concept's level
// (Table 4): instances have level 0, their direct concepts level >= 1.
func (b *Builder) Level() ([]int, error) {
	levels, err := b.TopoLevels()
	if err != nil {
		return nil, err
	}
	return levelDepth(b, levels), nil
}

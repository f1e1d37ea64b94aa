package graph

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Frozen is the immutable compressed-sparse-row (CSR) view of a
// taxonomy — the read-optimised layout the serving path queries, the
// laptop-scale analogue of deploying the finished taxonomy on Trinity.
// All edges live in two flat arrays (out and in) indexed by per-node
// offset tables; Children/Parents are O(1) subslices of those arrays.
// Roots, concepts, instances, topological levels and per-node depth are
// precomputed once at freeze (or load) time, and the closure traversals
// use pooled bitset scratch so Descendants/Ancestors allocate only
// their result and HasPath allocates nothing.
//
// Frozen is safe for concurrent use. Obtain one with Builder.Freeze,
// LoadFrozen or LoadMapped; there is no way to mutate it afterwards.
//
// A Frozen's labels, offset tables and edge arrays are either owned
// heap slices (Freeze, LoadFrozen) or zero-copy views into a
// memory-mapped snapshot (LoadMapped). Both backings sit behind the
// same accessors, so nothing downstream can tell them apart — except
// that a mapped Frozen must be Closed once the last reader is done,
// after which every slice or label string it handed out is invalid.
type Frozen struct {
	// arena holds all node labels in one contiguous region (owned or
	// mapped); label strings are zero-copy views into it.
	arena labelArena

	// sorted is the label table: all node ids ordered by label. It
	// drives the binary-search Lookup fallback and is also the sorted
	// iteration order reused by the precomputed node-class slices.
	sorted []NodeID
	// idx accelerates Lookup on non-trivial graphs: an open-addressed
	// hash table whose slots hold id+1 (0 = empty), sized to a power of
	// two >= 4*NumNodes (load factor <= 0.25 keeps probe chains short).
	// Nil for tiny graphs, where the sorted-table binary search wins
	// outright.
	idx []uint32

	// CSR adjacency: edges of node i are xxEdges[xxOff[i]:xxOff[i+1]],
	// sorted by Edge.To (copied verbatim from the Builder's sorted rows).
	outOff   []uint32
	outEdges []Edge
	inOff    []uint32
	inEdges  []Edge

	// outTo/inTo duplicate just the target ids of the edge arrays at a
	// 4-byte stride — the closure traversals only need targets, and the
	// dense layout keeps 6x more of the frontier in cache than stepping
	// through 20-byte Edge records.
	outTo []NodeID
	inTo  []NodeID

	roots     []NodeID
	concepts  []NodeID
	instances []NodeID

	// levels/depth are the TopoLevels/Level results computed once at
	// freeze time; topoErr holds the cycle error, if any, and is
	// returned by both.
	levels  [][]NodeID
	depth   []int
	topoErr error

	scratch sync.Pool // *csrScratch, reused across traversals

	// closer releases the backing store of a mapped view (the mmap
	// region); nil for owned slices. Swapped to nil on Close so the
	// release happens exactly once.
	closer atomic.Pointer[io.Closer]
	mapped bool
}

// lookupIndexMin is the node count below which Frozen skips building
// the hash index: a binary search over a handful of labels beats the
// hash on such graphs, and the sorted table is already there.
const lookupIndexMin = 16

// Freeze converts the builder into its immutable CSR view. The builder
// remains usable afterwards; the frozen view shares nothing with it.
func (b *Builder) Freeze() *Frozen {
	f := &Frozen{arena: arenaFromLabels(b.labels)}
	f.outOff, f.outEdges = flattenAdjacency(b.out)
	f.inOff, f.inEdges = flattenAdjacency(b.in)
	f.finish()
	return f
}

// flattenAdjacency packs per-node edge rows into one flat array plus an
// offset table of length n+1.
func flattenAdjacency(rows [][]Edge) ([]uint32, []Edge) {
	off := make([]uint32, len(rows)+1)
	total := 0
	for i, row := range rows {
		off[i] = uint32(total)
		total += len(row)
	}
	off[len(rows)] = uint32(total)
	flat := make([]Edge, 0, total)
	for _, row := range rows {
		flat = append(flat, row...)
	}
	return off, flat
}

// finish derives everything beyond labels and CSR arrays: the lookup
// tables and the precomputed node classes, levels and depths. Shared by
// Freeze and the snapshot parser.
func (f *Frozen) finish() {
	n := f.arena.count()
	f.outTo = targetsOf(f.outEdges)
	f.inTo = targetsOf(f.inEdges)
	f.sorted = make([]NodeID, n)
	for i := range f.sorted {
		f.sorted[i] = NodeID(i)
	}
	sort.Slice(f.sorted, func(i, j int) bool {
		return f.arena.label(f.sorted[i]) < f.arena.label(f.sorted[j])
	})
	if n >= lookupIndexMin {
		size := uint32(1)
		for size < uint32(4*n) {
			size <<= 1
		}
		f.idx = make([]uint32, size)
		mask := size - 1
		for id := 0; id < n; id++ {
			i := labelHash(f.arena.label(NodeID(id))) & mask
			for f.idx[i] != 0 {
				i = (i + 1) & mask
			}
			f.idx[i] = uint32(id) + 1
		}
	}
	// sorted is already in label order, so filtering it yields the
	// label-sorted node classes directly.
	for _, id := range f.sorted {
		if f.inOff[id+1] == f.inOff[id] {
			f.roots = append(f.roots, id)
		}
		if f.outOff[id+1] > f.outOff[id] {
			f.concepts = append(f.concepts, id)
		} else {
			f.instances = append(f.instances, id)
		}
	}
	f.levels, f.topoErr = f.topoLevels()
	if f.topoErr == nil {
		f.depth = f.levelDepth()
	}
}

// topoLevels partitions the nodes by indegree peeling; each level is
// sorted by label before it is emitted, so the partition is
// deterministic.
func (f *Frozen) topoLevels() ([][]NodeID, error) {
	n := f.NumNodes()
	remaining := make([]uint32, n)
	var current []NodeID
	for id := 0; id < n; id++ {
		remaining[id] = f.inOff[id+1] - f.inOff[id]
		if remaining[id] == 0 {
			current = append(current, NodeID(id))
		}
	}
	var levels [][]NodeID
	placed := 0
	for len(current) > 0 {
		sort.Slice(current, func(i, j int) bool { return f.arena.label(current[i]) < f.arena.label(current[j]) })
		levels = append(levels, current)
		placed += len(current)
		var next []NodeID
		for _, node := range current {
			for _, to := range f.outTo[f.outOff[node]:f.outOff[node+1]] {
				remaining[to]--
				if remaining[to] == 0 {
					next = append(next, to)
				}
			}
		}
		current = next
	}
	if placed != n {
		return nil, fmt.Errorf("graph: cycle detected; %d of %d nodes unplaced", n-placed, n)
	}
	return levels, nil
}

// levelDepth computes Level from the topological levels: children are
// finalised before parents by walking the levels in reverse.
func (f *Frozen) levelDepth() []int {
	depth := make([]int, f.NumNodes())
	for i := len(f.levels) - 1; i >= 0; i-- {
		for _, node := range f.levels[i] {
			best := 0
			for _, to := range f.outTo[f.outOff[node]:f.outOff[node+1]] {
				if d := depth[to] + 1; d > best {
					best = d
				}
			}
			depth[node] = best
		}
	}
	return depth
}

func targetsOf(edges []Edge) []NodeID {
	to := make([]NodeID, len(edges))
	for i := range edges {
		to[i] = edges[i].To
	}
	return to
}

// labelHash is FNV-1a over the label bytes.
func labelHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// NumNodes returns the node count.
func (f *Frozen) NumNodes() int { return f.arena.count() }

// Mapped reports whether the view's arrays alias a memory-mapped
// snapshot (true only for LoadMapped on a compatible platform).
func (f *Frozen) Mapped() bool { return f.mapped }

// LabelBytes returns the total size of the label arena in bytes.
func (f *Frozen) LabelBytes() int { return len(f.arena.data) }

// Close releases the mapped backing store, if any. Idempotent, and a
// no-op for owned views. After Close on a mapped view, every slice and
// label string obtained from the Frozen is invalid: callers must
// guarantee the last reader has drained first (the serving layer does
// this with a refcounted snapshot epoch).
func (f *Frozen) Close() error {
	cp := f.closer.Swap(nil)
	if cp == nil {
		return nil
	}
	return (*cp).Close()
}

// NumEdges returns the edge count.
func (f *Frozen) NumEdges() int { return len(f.outEdges) }

// Lookup returns the node for the label, or NoNode. Large graphs probe
// the open-addressed hash index; tiny graphs binary-search the sorted
// label table directly.
func (f *Frozen) Lookup(label string) NodeID {
	if f.idx != nil {
		mask := uint32(len(f.idx) - 1)
		for i := labelHash(label) & mask; ; i = (i + 1) & mask {
			slot := f.idx[i]
			if slot == 0 {
				return NoNode
			}
			if id := NodeID(slot - 1); f.arena.label(id) == label {
				return id
			}
		}
	}
	i := sort.Search(len(f.sorted), func(k int) bool { return f.arena.label(f.sorted[k]) >= label })
	if i < len(f.sorted) && f.arena.label(f.sorted[i]) == label {
		return f.sorted[i]
	}
	return NoNode
}

// Label returns the label of a node. The string is a zero-copy view
// into the label arena: valid until the Frozen is Closed (mapped views
// only; owned views live as long as the Frozen itself).
func (f *Frozen) Label(id NodeID) string { return f.arena.label(id) }

// Kind classifies the node: out-edges make a concept, none an instance.
func (f *Frozen) Kind(id NodeID) Kind {
	if f.outOff[id+1] > f.outOff[id] {
		return KindConcept
	}
	return KindInstance
}

// Children returns the out-edges of a node, sorted by Edge.To. The
// slice aliases the CSR array and must not be modified.
func (f *Frozen) Children(id NodeID) []Edge {
	lo, hi := f.outOff[id], f.outOff[id+1]
	if lo == hi {
		return nil
	}
	return f.outEdges[lo:hi:hi]
}

// Parents returns the in-edges of a node (Edge.To is the parent),
// sorted by Edge.To. The slice aliases the CSR array and must not be
// modified.
func (f *Frozen) Parents(id NodeID) []Edge {
	lo, hi := f.inOff[id], f.inOff[id+1]
	if lo == hi {
		return nil
	}
	return f.inEdges[lo:hi:hi]
}

// EdgeBetween returns the edge from -> to by binary search of the CSR
// row.
func (f *Frozen) EdgeBetween(from, to NodeID) (Edge, bool) {
	lo, hi := int(f.outOff[from]), int(f.outOff[from+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f.outEdges[mid].To < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < int(f.outOff[from+1]) && f.outEdges[lo].To == to {
		return f.outEdges[lo], true
	}
	return Edge{}, false
}

// Roots returns all nodes without parents, sorted by label. The slice
// is shared; callers must not modify it.
func (f *Frozen) Roots() []NodeID { return f.roots }

// Concepts returns all concept nodes, sorted by label. The slice is
// shared; callers must not modify it.
func (f *Frozen) Concepts() []NodeID { return f.concepts }

// Instances returns all instance (leaf) nodes, sorted by label. The
// slice is shared; callers must not modify it.
func (f *Frozen) Instances() []NodeID { return f.instances }

// csrScratch is the pooled traversal state for Frozen BFS: a visited
// bitset plus the BFS queue. After a traversal only the words touched
// by queued nodes are dirty, so release clears by queue instead of
// wiping the whole bitset.
type csrScratch struct {
	bits  []uint64
	queue []NodeID
}

func (sc *csrScratch) reset(n int) {
	words := (n + 63) / 64
	if len(sc.bits) < words {
		sc.bits = make([]uint64, words)
	}
	sc.queue = sc.queue[:0]
}

func (sc *csrScratch) seen(id NodeID) bool { return sc.bits[id>>6]&(1<<(id&63)) != 0 }
func (sc *csrScratch) mark(id NodeID)      { sc.bits[id>>6] |= 1 << (id & 63) }

// release zeroes exactly the bits set during the traversal (every
// marked node is on the queue) and returns the scratch to the pool.
func (f *Frozen) release(sc *csrScratch) {
	for _, id := range sc.queue {
		sc.bits[id>>6] = 0
	}
	f.scratch.Put(sc)
}

func (f *Frozen) getScratch(n int) *csrScratch {
	sc, ok := f.scratch.Get().(*csrScratch)
	if !ok {
		sc = &csrScratch{}
	}
	sc.reset(n)
	return sc
}

// closure runs a bitset BFS from id over one CSR direction (given by
// its offset and dense-target arrays) and returns the visited nodes
// excluding id, in visit order.
func (f *Frozen) closure(id NodeID, off []uint32, targets []NodeID) []NodeID {
	sc := f.getScratch(f.NumNodes())
	sc.mark(id)
	sc.queue = append(sc.queue, id)
	for head := 0; head < len(sc.queue); head++ {
		n := sc.queue[head]
		for _, to := range targets[off[n]:off[n+1]] {
			if !sc.seen(to) {
				sc.mark(to)
				sc.queue = append(sc.queue, to)
			}
		}
	}
	var out []NodeID
	if len(sc.queue) > 1 {
		out = make([]NodeID, len(sc.queue)-1)
		// Copy the result and clear the visited bits in one pass over the
		// queue, then return the scratch without a separate release walk.
		for i, id := range sc.queue[1:] {
			out[i] = id
			sc.bits[id>>6] = 0
		}
	}
	sc.bits[id>>6] = 0
	f.scratch.Put(sc)
	return out
}

// Descendants returns the descendant closure of id (excluding id),
// deduplicated, in BFS order. The only allocation is the result slice.
func (f *Frozen) Descendants(id NodeID) []NodeID { return f.closure(id, f.outOff, f.outTo) }

// Ancestors returns the ancestor closure of id (excluding id) in BFS
// order. The only allocation is the result slice.
func (f *Frozen) Ancestors(id NodeID) []NodeID { return f.closure(id, f.inOff, f.inTo) }

// HasPath reports whether to is reachable from from along out-edges.
// Allocates nothing once the pooled scratch is warm.
func (f *Frozen) HasPath(from, to NodeID) bool {
	if from == to {
		return true
	}
	sc := f.getScratch(f.NumNodes())
	sc.mark(from)
	sc.queue = append(sc.queue, from)
	found := false
	for head := 0; head < len(sc.queue) && !found; head++ {
		n := sc.queue[head]
		for _, next := range f.outTo[f.outOff[n]:f.outOff[n+1]] {
			if next == to {
				found = true
				break
			}
			if !sc.seen(next) {
				sc.mark(next)
				sc.queue = append(sc.queue, next)
			}
		}
	}
	f.release(sc)
	return found
}

// TopoLevels returns the precomputed Algorithm 3 level partition (or
// the cycle error recorded at freeze time). The slices are shared;
// callers must not modify them.
func (f *Frozen) TopoLevels() ([][]NodeID, error) {
	if f.topoErr != nil {
		return nil, f.topoErr
	}
	return f.levels, nil
}

// Level returns the precomputed longest-path-to-leaf depth per node (or
// the cycle error recorded at freeze time). The slice is shared;
// callers must not modify it.
func (f *Frozen) Level() ([]int, error) {
	if f.topoErr != nil {
		return nil, f.topoErr
	}
	return f.depth, nil
}

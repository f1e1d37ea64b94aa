// Package graph is the embedded graph store that hosts the final Probase
// taxonomy — the laptop-scale stand-in for the Trinity graph engine the
// paper deploys ([29, 30]). Nodes are string-interned labels; edges carry
// the discovery count n(x, y) and the plausibility P(x, y).
//
// The package mirrors the paper's two access patterns with two
// implementations of one read interface:
//
//   - Builder is the mutable store the construction pipeline
//     (Algorithms 1-2) writes into: interning, sorted-adjacency edge
//     upserts, cycle-refusal probes.
//   - Frozen is the immutable compressed-sparse-row (CSR) view the
//     serving path reads from: flat edge arrays with offset indexes,
//     a sorted label table, precomputed topological levels and depths,
//     and bitset traversals that allocate nothing per call.
//
// Reader is the seam between them: everything downstream of
// construction (the probabilistic layer, the query engine, the HTTP
// server, evaluation) reads the taxonomy through Reader and never
// mutates it. Builder.Freeze converts to the CSR view; NewBuilderFrom
// thaws any Reader back into a Builder when edges must be added again
// (taxonomy merging).
//
// Snapshots have one checksummed binary encoding, "PBC2": the CSR
// layout serialised directly, written by Frozen.Save (or WriteSnapshot
// for any Reader) and read back by LoadFrozen (copying) or LoadMapped
// (zero-copy over a memory-mapped file).
package graph

import (
	"fmt"
	"sort"
)

// NodeID identifies an interned node.
type NodeID uint32

// NoNode is returned by Lookup for unknown labels.
const NoNode = NodeID(^uint32(0))

// Kind distinguishes concept nodes from instance (leaf) nodes. Per
// Section 3.1: nodes without out-edges are instances, others are concepts.
type Kind uint8

const (
	// KindConcept marks a node with out-edges.
	KindConcept Kind = iota
	// KindInstance marks a leaf node.
	KindInstance
)

// Edge is a directed isA edge from a super-concept to a sub-node.
type Edge struct {
	To           NodeID
	Count        int64   // n(x, y)
	Plausibility float64 // P(x, y), 0 when not yet computed
}

// Reader is the read-only view of a taxonomy graph, satisfied by both
// Builder (mutable, construction-time) and Frozen (immutable CSR,
// serving-time). The whole read path — the probabilistic layer, the
// query engine, the HTTP handlers, evaluation — depends on this
// interface only.
//
// Contract shared by both implementations:
//
//   - Adjacency lists (Children, Parents) are sorted by Edge.To in
//     ascending node order, and the returned slices alias internal
//     storage: callers must not modify them.
//   - Descendants and Ancestors return the closure excluding the start
//     node, deduplicated, in BFS order over the sorted adjacency.
//   - Roots, Concepts and Instances are sorted by label.
//   - TopoLevels partitions nodes into Algorithm 3's levels (each level
//     sorted by label) and errors on a cycle; Level is the longest path
//     down to a leaf per node. On Frozen both are precomputed: the
//     returned slices are shared and must be treated as read-only.
//
// Both implementations return byte-identical results for every Reader
// method on the same graph, which is what lets the query layer swap
// backends without changing a single answer (see ARCHITECTURE.md,
// "Storage layer").
type Reader interface {
	// NumNodes returns the node count.
	NumNodes() int
	// NumEdges returns the edge count.
	NumEdges() int
	// Lookup returns the node for the label, or NoNode.
	Lookup(label string) NodeID
	// Label returns the label of a node.
	Label(id NodeID) string
	// Kind classifies the node: out-edges make a concept, none an instance.
	Kind(id NodeID) Kind
	// Children returns the out-edges of a node, sorted by Edge.To.
	Children(id NodeID) []Edge
	// Parents returns the in-edges of a node (Edge.To is the parent),
	// sorted by Edge.To.
	Parents(id NodeID) []Edge
	// EdgeBetween returns the edge from -> to.
	EdgeBetween(from, to NodeID) (Edge, bool)
	// Roots returns all nodes without parents, sorted by label.
	Roots() []NodeID
	// Concepts returns all concept nodes, sorted by label.
	Concepts() []NodeID
	// Instances returns all instance (leaf) nodes, sorted by label.
	Instances() []NodeID
	// Descendants returns the descendant closure of id (excluding id),
	// deduplicated, in BFS order.
	Descendants(id NodeID) []NodeID
	// Ancestors returns the ancestor closure of id (excluding id) in BFS
	// order.
	Ancestors(id NodeID) []NodeID
	// HasPath reports whether to is reachable from from along out-edges.
	HasPath(from, to NodeID) bool
	// TopoLevels partitions the nodes into the levels of Algorithm 3:
	// L1 holds nodes with no parents; L(k) holds nodes all of whose
	// parents lie in L1..L(k-1). An error is returned on a cycle.
	TopoLevels() ([][]NodeID, error)
	// Level returns, for every node, the length of the longest path from
	// the node down to a leaf — the paper's definition of a concept's
	// level (Table 4): instances have level 0, their direct concepts
	// level >= 1.
	Level() ([]int, error)
}

// Interface checks: both storage backends satisfy the read seam.
var (
	_ Reader = (*Builder)(nil)
	_ Reader = (*Frozen)(nil)
)

// sortIDsByLabel orders ids by their label; shared by both backends so
// Roots/Concepts/Instances/TopoLevels agree byte-for-byte.
func sortIDsByLabel(g Reader, ids []NodeID) {
	sort.Slice(ids, func(i, j int) bool { return g.Label(ids[i]) < g.Label(ids[j]) })
}

// rootsOf computes Roots for any Reader.
func rootsOf(g Reader) []NodeID {
	var roots []NodeID
	for id, n := 0, g.NumNodes(); id < n; id++ {
		if len(g.Parents(NodeID(id))) == 0 {
			roots = append(roots, NodeID(id))
		}
	}
	sortIDsByLabel(g, roots)
	return roots
}

// conceptsOf computes Concepts for any Reader.
func conceptsOf(g Reader) []NodeID {
	var out []NodeID
	for id, n := 0, g.NumNodes(); id < n; id++ {
		if len(g.Children(NodeID(id))) > 0 {
			out = append(out, NodeID(id))
		}
	}
	sortIDsByLabel(g, out)
	return out
}

// instancesOf computes Instances for any Reader.
func instancesOf(g Reader) []NodeID {
	var out []NodeID
	for id, n := 0, g.NumNodes(); id < n; id++ {
		if len(g.Children(NodeID(id))) == 0 {
			out = append(out, NodeID(id))
		}
	}
	sortIDsByLabel(g, out)
	return out
}

// topoLevels computes TopoLevels for any Reader by indegree peeling;
// each level is sorted by label before it is emitted, so the partition
// is deterministic and identical across backends.
func topoLevels(g Reader) ([][]NodeID, error) {
	n := g.NumNodes()
	remaining := make([]int, n)
	placed := 0
	for id := 0; id < n; id++ {
		remaining[id] = len(g.Parents(NodeID(id)))
	}
	var levels [][]NodeID
	var current []NodeID
	for id := 0; id < n; id++ {
		if remaining[id] == 0 {
			current = append(current, NodeID(id))
		}
	}
	for len(current) > 0 {
		sortIDsByLabel(g, current)
		levels = append(levels, current)
		placed += len(current)
		var next []NodeID
		for _, node := range current {
			for _, e := range g.Children(node) {
				remaining[e.To]--
				if remaining[e.To] == 0 {
					next = append(next, e.To)
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

// levelDepth computes Level from precomputed topological levels:
// children are finalised before parents by walking the levels in
// reverse.
func levelDepth(g Reader, levels [][]NodeID) []int {
	depth := make([]int, g.NumNodes())
	for i := len(levels) - 1; i >= 0; i-- {
		for _, node := range levels[i] {
			best := 0
			for _, e := range g.Children(node) {
				if d := depth[e.To] + 1; d > best {
					best = d
				}
			}
			depth[node] = best
		}
	}
	return depth
}

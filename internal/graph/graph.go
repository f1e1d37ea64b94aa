// Package graph is the embedded graph store that hosts the final Probase
// taxonomy — the laptop-scale stand-in for the Trinity graph engine the
// paper deploys ([29, 30]). Nodes are string-interned labels; edges carry
// the discovery count n(x, y) and the plausibility P(x, y).
//
// The package mirrors the paper's build-then-serve split with one type
// per side:
//
//   - Builder is the mutable store the construction pipeline
//     (Algorithms 1-2) writes into: interning, sorted-adjacency edge
//     upserts, cycle-refusal probes. It is write-side only; nothing
//     queries a taxonomy through it.
//   - Frozen is the immutable compressed-sparse-row (CSR) view and the
//     one read backend: flat edge arrays with offset indexes, a sorted
//     label table, precomputed topological levels and depths, and
//     bitset traversals that allocate nothing per call. Everything
//     downstream of construction (the probabilistic layer, the query
//     engine, the HTTP server, evaluation) reads *Frozen.
//
// Builder.Freeze converts to the CSR view; NewBuilderFrom thaws a
// Frozen back into a Builder when edges must be added again (taxonomy
// merging).
//
// Snapshots have one checksummed binary encoding, "PBC2": the CSR
// layout serialised directly, written by Frozen.Save and read back by
// LoadFrozen (copying) or LoadMapped (zero-copy over a memory-mapped
// file).
package graph

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

// Package taxonomy implements the taxonomy-construction algorithm of
// Section 3 (Algorithm 2). Each extracted sentence yields a *local
// taxonomy* (Property 1: the super-concept of one sentence has a single
// sense). Local taxonomies with the same root label are merged
// horizontally when their child sets overlap enough (Property 2), and a
// parent's child slot is linked to another local taxonomy vertically when
// the child sets align (Property 3). The similarity is the absolute
// overlap |A ∩ B| >= δ of Section 3.5, whose monotonicity (Property 4)
// gives the confluence of Theorem 1; a Jaccard variant is provided for the
// ablation that the paper argues against.
//
// Build runs the two merge stages on the shared worker pool
// (internal/parallel): the horizontal stage fans out over root labels
// (labels merge independently, Section 3.4) and the vertical stage over
// sense clusters (link decisions read only merge-frozen child sets).
// Config.Workers sizes the pool; the built taxonomy is byte-identical
// at every worker count — ARCHITECTURE.md states the contract, and the
// determinism tests enforce it.
package taxonomy

import "sort"

// Local is one local taxonomy T_x^i: a root label with a multiset of
// child labels. The sense index i is implicit in the *Local identity.
type Local struct {
	Root     string
	Children map[string]int64 // child label -> occurrence count
}

// NewLocal builds a local taxonomy from one sentence's extraction group.
func NewLocal(root string, subs []string) *Local {
	l := &Local{Root: root, Children: make(map[string]int64, len(subs))}
	for _, s := range subs {
		l.Children[s]++
	}
	return l
}

// clone returns a deep copy.
func (l *Local) clone() *Local {
	c := &Local{Root: l.Root, Children: make(map[string]int64, len(l.Children))}
	for k, v := range l.Children {
		c.Children[k] = v
	}
	return c
}

// absorb merges other's children into l (a horizontal merge).
func (l *Local) absorb(other *Local) {
	for k, v := range other.Children {
		l.Children[k] += v
	}
}

// childMass is the total occurrence count of a child multiset; absorb
// adds masses.
func childMass(children map[string]int64) int64 {
	var m int64
	for _, v := range children {
		m += v
	}
	return m
}

// childLabels returns the sorted child labels.
func (l *Local) childLabels() []string {
	out := make([]string, 0, len(l.Children))
	for k := range l.Children {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Similarity decides whether two child sets are similar enough to merge.
type Similarity interface {
	// Similar reports Sim(A, B) for the two child multisets.
	Similar(a, b map[string]int64) bool
	// Name identifies the function in reports.
	Name() string
}

// overlap returns |A ∩ B| over the distinct child labels.
func overlap(a, b map[string]int64) int {
	if len(b) < len(a) {
		a, b = b, a
	}
	n := 0
	for k := range a {
		if _, ok := b[k]; ok {
			n++
		}
	}
	return n
}

// AbsoluteOverlap is the paper's similarity: f(A,B) = |A ∩ B| with a
// constant threshold δ. It satisfies Property 4 (monotone under set
// growth), which Theorem 1's confluence proof requires.
type AbsoluteOverlap struct {
	Delta int
}

// Similar implements Similarity.
func (s AbsoluteOverlap) Similar(a, b map[string]int64) bool {
	return overlap(a, b) >= s.Delta
}

// Name implements Similarity.
func (s AbsoluteOverlap) Name() string { return "absolute-overlap" }

// Jaccard is the relative similarity the paper rejects in Section 3.5:
// |A ∩ B| / |A ∪ B| >= Tau. It violates Property 4 — a set can be similar
// to a subset of C but not to C — so merge results become order-dependent.
// Provided for the ablation experiment.
type Jaccard struct {
	Tau float64
}

// Similar implements Similarity.
func (s Jaccard) Similar(a, b map[string]int64) bool {
	inter := overlap(a, b)
	union := len(a) + len(b) - inter
	if union == 0 {
		return false
	}
	return float64(inter)/float64(union) >= s.Tau
}

// Name implements Similarity.
func (s Jaccard) Name() string { return "jaccard" }

// Package baseline provides the comparators of the paper's evaluation:
// scaled reference taxonomies with the characteristic limitations of
// WordNet, WikiTaxonomy, YAGO and Freebase (Tables 1 and 4, Figures 5-8),
// and the syntactic-iteration extractor of Section 2.1 (the
// KnowItAll/TextRunner-style baseline). Each reference is derived from
// the ground-truth world so that coverage comparisons measure the
// modelled limitation, not vocabulary mismatch.
package baseline

import (
	"math/rand"
	"sort"
	"strings"

	"repro/internal/corpus"
	"repro/internal/graph"
)

// Reference is a comparator taxonomy.
type Reference struct {
	Name string
	// Graph is the finished reference taxonomy, frozen once after
	// construction.
	Graph     *graph.Frozen
	Concepts  []string // singular concept labels
	Instances []string
}

// NewWordNetRef models WordNet: only unmodified (single-word) concepts, a
// deep clean hierarchy, and few instances per concept — lexicographers
// curate words, not entities.
func NewWordNetRef(w *corpus.World) *Reference {
	r := &Reference{Name: "WordNet"}
	include := func(c *corpus.Concept) bool {
		return !strings.Contains(c.Label, " ")
	}
	r.build(w, include, 5, true)
	return r
}

// NewWikiTaxonomyRef models WikiTaxonomy: mid-scale category tree with
// thematic topics, moderate instances.
func NewWikiTaxonomyRef(w *corpus.World) *Reference {
	rng := rand.New(rand.NewSource(7))
	r := &Reference{Name: "WikiTaxonomy"}
	include := func(c *corpus.Concept) bool {
		if !strings.Contains(c.Label, " ") {
			return true
		}
		return rng.Float64() < 0.35
	}
	r.build(w, include, 12, true)
	return r
}

// NewYAGORef models YAGO: larger concept inventory (Wikipedia categories
// mapped into WordNet) and many instances, still well below web scale.
func NewYAGORef(w *corpus.World) *Reference {
	rng := rand.New(rand.NewSource(11))
	r := &Reference{Name: "YAGO"}
	include := func(c *corpus.Concept) bool {
		if !strings.Contains(c.Label, " ") {
			return true
		}
		return rng.Float64() < 0.6
	}
	r.build(w, include, 40, true)
	return r
}

// freebaseDomains are the community-curated verticals with near-complete
// coverage (Section 1: "books, music and movies").
var freebaseDomains = map[string]bool{
	"book": true, "album": true, "movie": true, "film": true,
	"company": true, "actor": true, "artist": true, "city": true,
	"website": true, "celebrity": true,
}

// NewFreebaseRef models Freebase: very few concepts, zero
// concept-subconcept edges (Table 4's all-zero row), and huge flat
// instance sets inside its curated domains.
func NewFreebaseRef(w *corpus.World) *Reference {
	r := &Reference{Name: "Freebase"}
	include := func(c *corpus.Concept) bool { return freebaseDomains[c.Key] }
	r.build(w, include, 1<<30, false)
	return r
}

// build fills the reference: included concepts keep up to maxInstances
// instances; withHierarchy wires concept-subconcept edges between
// included concepts.
func (r *Reference) build(w *corpus.World, include func(*corpus.Concept) bool, maxInstances int, withHierarchy bool) {
	included := make(map[string]bool)
	for _, key := range w.Keys() {
		c := w.Concept(key)
		if include(c) {
			included[key] = true
		}
	}
	// Node per included concept; sense-sharing labels collapse (references
	// do not model senses — a real WordNet does, but its instance space is
	// so small the distinction does not matter for coverage).
	keys := make([]string, 0, len(included))
	for k := range included {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	g := graph.NewBuilder()
	seenLabel := make(map[string]bool)
	for _, key := range keys {
		c := w.Concept(key)
		id := g.Intern(c.Label)
		if !seenLabel[c.Label] {
			seenLabel[c.Label] = true
			r.Concepts = append(r.Concepts, c.Label)
		}
		n := len(c.Instances)
		if n > maxInstances {
			n = maxInstances
		}
		for _, inst := range c.Instances[:n] {
			g.AddEdge(id, g.Intern(inst), 1, 1)
			r.Instances = append(r.Instances, inst)
		}
		if withHierarchy {
			for _, pk := range c.Parents {
				if included[pk] {
					p := w.Concept(pk)
					from := g.Intern(p.Label)
					if from != id && !g.HasPath(id, from) {
						g.AddEdge(from, id, 1, 1)
					}
				}
			}
		}
	}
	r.Graph = g.Freeze()
	sort.Strings(r.Instances)
	r.Instances = dedupeSorted(r.Instances)
}

func dedupeSorted(ss []string) []string {
	out := ss[:0]
	for i, s := range ss {
		if i == 0 || s != ss[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// NumConcepts returns the concept-label count (Table 1's metric).
func (r *Reference) NumConcepts() int { return len(r.Concepts) }

// Package eval computes the evaluation metrics of Section 5 against the
// ground-truth world: sampled pair precision (Figures 9 and 11),
// concept-subconcept hierarchy statistics (Table 4), and concept-size
// distributions (Figure 8).
package eval

import (
	"math/rand"
	"sort"

	"repro/internal/corpus"
	"repro/internal/extraction"
	"repro/internal/graph"
	"repro/internal/kb"
)

// BenchmarkConcepts are the 40 benchmark concepts of Table 5.
var BenchmarkConcepts = []string{
	"actor", "aircraft model", "airline", "airport", "album", "architect",
	"artist", "book", "cancer center", "celebrity", "chemical compound",
	"city", "company", "digital camera", "disease", "drug", "festival",
	"file format", "film", "food", "football team", "game publisher",
	"internet protocol", "mountain", "museum", "olympic sport",
	"operating system", "political party", "politician",
	"programming language", "public library", "religion", "restaurant",
	"river", "skyscraper", "tennis player", "theater", "university",
	"web browser", "website",
}

// ConceptPrecision is the judged precision of one concept's sampled pairs.
type ConceptPrecision struct {
	Concept string
	Sampled int
	Correct int
}

// Precision returns Correct/Sampled, or 0 for an unsampled concept.
func (c ConceptPrecision) Precision() float64 {
	if c.Sampled == 0 {
		return 0
	}
	return float64(c.Correct) / float64(c.Sampled)
}

// SampleConceptPrecision reproduces the Figure 9 protocol: for each
// benchmark concept, sample up to maxPerConcept extracted
// instances/sub-concepts uniformly and judge them against the world (the
// stand-in for the paper's human judges).
func SampleConceptPrecision(store *kb.Store, w *corpus.World, concepts []string, maxPerConcept int, seed int64) []ConceptPrecision {
	rng := rand.New(rand.NewSource(seed))
	out := make([]ConceptPrecision, 0, len(concepts))
	for _, c := range concepts {
		subs := store.SubsOf(c)
		cp := ConceptPrecision{Concept: c}
		if len(subs) == 0 {
			out = append(out, cp)
			continue
		}
		idx := rng.Perm(len(subs))
		if len(idx) > maxPerConcept {
			idx = idx[:maxPerConcept]
		}
		for _, i := range idx {
			cp.Sampled++
			if w.IsTrueIsA(c, subs[i]) {
				cp.Correct++
			}
		}
		out = append(out, cp)
	}
	return out
}

// Average returns the mean precision over the sampled concepts.
func Average(cps []ConceptPrecision) float64 {
	var sum float64
	n := 0
	for _, cp := range cps {
		if cp.Sampled > 0 {
			sum += cp.Precision()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// PairSetPrecision judges an explicit pair list (used for the
// per-iteration curve of Figure 11).
func PairSetPrecision(pairs []kb.Pair, w *corpus.World) float64 {
	if len(pairs) == 0 {
		return 0
	}
	correct := 0
	for _, p := range pairs {
		if w.IsTrueIsA(p.X, p.Y) {
			correct++
		}
	}
	return float64(correct) / float64(len(pairs))
}

// HierarchyMetrics is one row of Table 4.
type HierarchyMetrics struct {
	Name        string
	IsAPairs    int     // concept-subconcept edges
	AvgChildren float64 // average concept-children per concept
	AvgParents  float64 // average concept-parents per concept
	AvgLevel    float64 // average concept level (longest path to a leaf)
	MaxLevel    int
}

// Hierarchy computes the Table 4 metrics of a taxonomy graph.
func Hierarchy(name string, g *graph.Frozen) (HierarchyMetrics, error) {
	m := HierarchyMetrics{Name: name}
	depth, err := g.Level()
	if err != nil {
		return m, err
	}
	concepts := g.Concepts()
	if len(concepts) == 0 {
		return m, nil
	}
	var children, parents, levelSum int
	for _, c := range concepts {
		for _, e := range g.Children(c) {
			if g.Kind(e.To) == graph.KindConcept {
				m.IsAPairs++
				children++
				parents++
			}
		}
		if depth[c] > m.MaxLevel {
			m.MaxLevel = depth[c]
		}
		levelSum += depth[c]
	}
	n := float64(len(concepts))
	m.AvgChildren = float64(children) / n
	m.AvgParents = float64(parents) / n
	m.AvgLevel = float64(levelSum) / n
	return m, nil
}

// SizeBucket is one bar of Figure 8's concept-size histogram.
type SizeBucket struct {
	Label    string
	Min, Max int // [Min, Max); Max = 0 means unbounded
	Count    int
}

// sizeBuckets mirrors the intervals of Figure 8.
func sizeBuckets() []SizeBucket {
	return []SizeBucket{
		{Label: ">=1M", Min: 1000000},
		{Label: "[100K,1M)", Min: 100000, Max: 1000000},
		{Label: "[10K,100K)", Min: 10000, Max: 100000},
		{Label: "[1K,10K)", Min: 1000, Max: 10000},
		{Label: "[100,1K)", Min: 100, Max: 1000},
		{Label: "[10,100)", Min: 10, Max: 100},
		{Label: "[5,10)", Min: 5, Max: 10},
		{Label: "<5", Min: 0, Max: 5},
	}
}

// SizeDistribution computes Figure 8: the number of concepts per
// concept-size bucket, where concept size is the number of instances
// directly under the concept, plus the share of all concept-instance
// pairs held by the 10 largest concepts (the paper's 70% vs 4.5%
// contrast between Freebase and Probase).
type SizeDistribution struct {
	Name       string
	Buckets    []SizeBucket
	TotalPairs int
	Top10Pairs int
	Top10Share float64
}

// Distribution computes the Figure 8 statistics for a taxonomy graph.
func Distribution(name string, g *graph.Frozen) SizeDistribution {
	d := SizeDistribution{Name: name, Buckets: sizeBuckets()}
	var sizes []int
	for _, c := range g.Concepts() {
		size := 0
		for _, e := range g.Children(c) {
			if g.Kind(e.To) == graph.KindInstance {
				size++
			}
		}
		sizes = append(sizes, size)
		d.TotalPairs += size
		for i := range d.Buckets {
			b := &d.Buckets[i]
			if size >= b.Min && (b.Max == 0 || size < b.Max) {
				b.Count++
				break
			}
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	for i := 0; i < 10 && i < len(sizes); i++ {
		d.Top10Pairs += sizes[i]
	}
	if d.TotalPairs > 0 {
		d.Top10Share = float64(d.Top10Pairs) / float64(d.TotalPairs)
	}
	return d
}

// StorePrecision judges every pair in Γ (used by tests; the paper's
// protocol samples instead).
func StorePrecision(store *kb.Store, w *corpus.World) (precision float64, total int) {
	correct := 0
	store.ForEachPair(func(x, y string, n int64) {
		total++
		if w.IsTrueIsA(x, y) {
			correct++
		}
	})
	if total == 0 {
		return 0, 0
	}
	return float64(correct) / float64(total), total
}

// Recall measures how many ground-truth pairs the store recovered, over
// the pairs the corpus could possibly support (the world's direct
// concept-instance and concept-subconcept links).
func Recall(store *kb.Store, w *corpus.World) (recall float64, found, total int) {
	for _, key := range w.Keys() {
		c := w.Concept(key)
		for _, inst := range c.Instances {
			total++
			if store.Count(c.Label, extraction.CanonicalSub(inst)) > 0 {
				found++
			}
		}
	}
	if total == 0 {
		return 0, 0, 0
	}
	return float64(found) / float64(total), found, total
}

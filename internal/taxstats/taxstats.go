// Package taxstats computes a deterministic health profile over a
// taxonomy — the data-plane complement to internal/obs's runtime
// telemetry. Where /metrics answers "is the process healthy", a
// Profile answers "is the *taxonomy* healthy": structural shape
// (node/edge/concept/instance counts, degree and depth histograms,
// roots and orphans, label-arena bytes, top concepts by instance
// count) and the statistical shape of the paper's core claim — the
// plausibility and typicality score distributions of Sections 4-5,
// plus the per-instance ambiguity entropy of P(concept|instance).
//
// Profiles drive three consumers:
//
//   - Register exposes a profile as probase_snapshot_* gauges in an
//     obs.Registry, refreshed whenever the provider swaps snapshots.
//   - probase-inspect renders profiles as probase-inspect/v1 reports.
//   - DiffProfiles + Thresholds.Gate turn two profiles into a drift
//     verdict — the machine-checkable "is this new snapshot safe to
//     serve?" gate the snapshot hot-swap path needs.
//
// Compute fans its expensive passes out on internal/parallel under the
// repository-wide determinism contract: per-item results land in
// per-index slots and every reduction runs serially in index order, so
// the profile is byte-identical at any worker count.
package taxstats

import (
	"context"
	"math"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/prob"
)

// Options tunes Compute. The zero value profiles everything at
// GOMAXPROCS workers with the top 10 concepts reported.
type Options struct {
	// Workers bounds the worker pool of the per-node and per-instance
	// passes; <= 0 means GOMAXPROCS. The profile is byte-identical at
	// every worker count.
	Workers int
	// TopK is how many top concepts (by direct instance count) to
	// report; <= 0 means 10.
	TopK int
	// SampleInstances caps how many instances the typicality and
	// entropy passes score; 0 means all. When a cap applies, the first
	// SampleInstances instances in the graph's deterministic
	// Instances() order (sorted by label) are profiled and
	// Profile.SampledInstances records the cap, so a capped profile is
	// never mistaken for an exhaustive one.
	SampleInstances int
}

func (o Options) withDefaults() Options {
	o.Workers = parallel.Workers(o.Workers)
	if o.TopK <= 0 {
		o.TopK = 10
	}
	return o
}

// ConceptStat is one entry of the top-concepts table.
type ConceptStat struct {
	Label string `json:"label"`
	// Instances is the number of direct instance (leaf) children.
	Instances int `json:"instances"`
	// OutDegree is the node's total fan-out (instances + sub-concepts).
	OutDegree int `json:"out_degree"`
}

// Profile is the deterministic health profile of one taxonomy.
type Profile struct {
	// Fingerprint identifies the logical graph content: labels in node
	// order plus every out-edge with its count and plausibility bits.
	// Two graphs with the same content (e.g. a heap-loaded and a mapped
	// copy of one snapshot) produce the same fingerprint.
	Fingerprint string `json:"fingerprint"`

	Nodes     int `json:"nodes"`
	Edges     int `json:"edges"`
	Concepts  int `json:"concepts"`
	Instances int `json:"instances"`
	Roots     int `json:"roots"`
	// Orphans counts isolated nodes: no parents and no children.
	Orphans    int   `json:"orphans"`
	LabelBytes int64 `json:"label_bytes"`
	MaxDepth   int   `json:"max_depth"`
	TopoLevels int   `json:"topo_levels"`

	OutDegree Degrees `json:"out_degree"`
	InDegree  Degrees `json:"in_degree"`
	// DepthCounts[d] is the number of nodes at level d (longest path
	// down to a leaf, the paper's concept level).
	DepthCounts []int64 `json:"depth_counts"`

	TopConcepts []ConceptStat `json:"top_concepts"`

	// Plausibility is the distribution of the stored edge plausibility
	// P(x,y) over every edge. ZeroMass is the fraction of edges never
	// scored by the evidence model.
	Plausibility ScoreDist `json:"plausibility"`
	// Typicality is the distribution of all abstraction scores T(x|i)
	// over the profiled instances (every concept's score for every
	// instance, not just the top one).
	Typicality ScoreDist `json:"typicality"`
	// Entropy is the distribution of the per-instance ambiguity signal:
	// the Shannon entropy (bits) of P(concept|instance). ZeroMass is
	// the fraction of unambiguous instances (single concept).
	Entropy ScoreDist `json:"entropy"`
	// SampledInstances is how many instances the typicality and entropy
	// passes actually scored (== Instances unless Options capped it).
	SampledInstances int `json:"sampled_instances"`
}

// Compute profiles g. typ supplies the typicality engine for the
// score-distribution passes; with a nil typ the Typicality and Entropy
// sections stay zero (graph-only profile). The only error source is a
// cyclic graph, which a built or loaded taxonomy cannot be.
func Compute(g *graph.Frozen, typ *prob.Typicality, opts Options) (*Profile, error) {
	opts = opts.withDefaults()
	levels, err := g.TopoLevels()
	if err != nil {
		return nil, err
	}
	depth, err := g.Level()
	if err != nil {
		return nil, err
	}

	p := &Profile{
		Fingerprint: Fingerprint(g),
		Nodes:       g.NumNodes(),
		Edges:       g.NumEdges(),
		Concepts:    len(g.Concepts()),
		Instances:   len(g.Instances()),
		Roots:       len(g.Roots()),
		TopoLevels:  len(levels),
	}

	// Serial structural pass: cheap per-node counters.
	maxDepth := 0
	outDeg := newDegrees()
	inDeg := newDegrees()
	for id := 0; id < p.Nodes; id++ {
		node := graph.NodeID(id)
		p.LabelBytes += int64(len(g.Label(node)))
		nOut, nIn := len(g.Children(node)), len(g.Parents(node))
		outDeg.add(nOut)
		inDeg.add(nIn)
		if nOut == 0 && nIn == 0 {
			p.Orphans++
		}
		if depth[id] > maxDepth {
			maxDepth = depth[id]
		}
	}
	p.MaxDepth = maxDepth
	outDeg.finish(p.Nodes)
	inDeg.finish(p.Nodes)
	p.OutDegree, p.InDegree = outDeg.Degrees, inDeg.Degrees
	p.DepthCounts = make([]int64, maxDepth+1)
	for _, d := range depth {
		p.DepthCounts[d]++
	}

	ctx := context.Background()
	concepts := g.Concepts()

	// Parallel per-concept pass: plausibility rows and direct instance
	// counts, one slot per concept, reduced serially in Concepts()
	// order.
	type conceptRow struct {
		plaus     []float64
		instances int
	}
	rows := make([]conceptRow, len(concepts))
	if err := parallel.ForEach(ctx, opts.Workers, len(concepts), func(i int) error {
		children := g.Children(concepts[i])
		row := conceptRow{plaus: make([]float64, 0, len(children))}
		for _, e := range children {
			row.plaus = append(row.plaus, e.Plausibility)
			if g.Kind(e.To) == graph.KindInstance {
				row.instances++
			}
		}
		rows[i] = row
		return nil
	}); err != nil {
		return nil, err
	}
	plaus := make([]float64, 0, p.Edges)
	stats := make([]ConceptStat, len(concepts))
	for i, row := range rows {
		plaus = append(plaus, row.plaus...)
		stats[i] = ConceptStat{
			// Clone: g.Label may be a zero-copy view into a memory-mapped
			// snapshot, and the profile (served on /v1/admin/stats, read by
			// metrics gauges) can be inspected after that snapshot is
			// swapped out and unmapped.
			Label:     strings.Clone(g.Label(concepts[i])),
			Instances: row.instances,
			OutDegree: len(row.plaus),
		}
	}
	p.Plausibility = newScoreDist(plaus, unitBounds())
	p.TopConcepts = topConcepts(stats, opts.TopK)

	// Parallel per-instance pass: the full T(x|i) score vector and its
	// ambiguity entropy, one slot per instance, reduced in Instances()
	// order. The typicality engine memoises T(i|x) tables internally
	// and is safe for concurrent use; the scores themselves never
	// depend on cache warmth or scheduling.
	if typ != nil {
		instances := g.Instances()
		if opts.SampleInstances > 0 && opts.SampleInstances < len(instances) {
			instances = instances[:opts.SampleInstances]
		}
		p.SampledInstances = len(instances)
		type instRow struct {
			scores  []float64
			entropy float64
		}
		irows := make([]instRow, len(instances))
		if err := parallel.ForEach(ctx, opts.Workers, len(instances), func(i int) error {
			ranked := typ.ConceptsOf(instances[i])
			row := instRow{scores: make([]float64, len(ranked))}
			for j, r := range ranked {
				row.scores[j] = r.Score
			}
			row.entropy = prob.Entropy(ranked)
			irows[i] = row
			return nil
		}); err != nil {
			return nil, err
		}
		var tscores, entropies []float64
		for _, row := range irows {
			tscores = append(tscores, row.scores...)
			if len(row.scores) > 0 {
				entropies = append(entropies, row.entropy)
			}
		}
		p.Typicality = newScoreDist(tscores, unitBounds())
		p.Entropy = newScoreDist(entropies, entropyBounds())
	}
	return p, nil
}

// topConcepts selects the k concepts with the most direct instances,
// ties broken by label, from the per-concept stats (already in
// Concepts() order, i.e. sorted by label — so the tie-break is a
// stable sort away).
func topConcepts(stats []ConceptStat, k int) []ConceptStat {
	sort.SliceStable(stats, func(i, j int) bool {
		return stats[i].Instances > stats[j].Instances
	})
	if k > len(stats) {
		k = len(stats)
	}
	return append([]ConceptStat(nil), stats[:k]...)
}

// degreeBounds are the upper bounds of the degree histograms.
var degreeBoundsTemplate = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

type degrees struct {
	Degrees
	sum int64
}

func newDegrees() *degrees {
	return &degrees{Degrees: Degrees{Hist: Hist{
		Bounds: append([]float64(nil), degreeBoundsTemplate...),
		Counts: make([]int64, len(degreeBoundsTemplate)+1),
	}}}
}

func (d *degrees) add(deg int) {
	d.Hist.observe(float64(deg))
	d.sum += int64(deg)
	if deg > d.Max {
		d.Max = deg
	}
}

func (d *degrees) finish(nodes int) {
	if nodes > 0 {
		d.Mean = float64(d.sum) / float64(nodes)
	}
}

// Degrees summarises a node-degree distribution.
type Degrees struct {
	Mean float64 `json:"mean"`
	Max  int     `json:"max"`
	Hist Hist    `json:"histogram"`
}

// Hist is a fixed-bucket histogram: Counts[i] holds observations with
// value <= Bounds[i] (and > Bounds[i-1]); the final count is the
// implicit +Inf bucket.
type Hist struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

func (h *Hist) observe(v float64) {
	i := sort.SearchFloat64s(h.Bounds, v)
	h.Counts[i]++
}

// unitBounds buckets scores in [0, 1].
func unitBounds() []float64 {
	return []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
}

// entropyBounds buckets ambiguity entropies in bits.
func entropyBounds() []float64 {
	return []float64{0, 0.5, 1, 1.5, 2, 2.5, 3, 4, 6, 8}
}

// oneEps is the tolerance under which a score counts as "mass at 1":
// the noisy-or saturates asymptotically, so exact equality would
// undercount saturated edges.
const oneEps = 1e-9

// ScoreDist summarises a score distribution: exact nearest-rank
// quantiles, the mass concentrated at the distribution's degenerate
// ends, and a fixed-bucket histogram.
type ScoreDist struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	// ZeroMass is the fraction of values == 0; OneMass the fraction
	// >= 1-1e-9.
	ZeroMass float64 `json:"zero_mass"`
	OneMass  float64 `json:"one_mass"`
	Hist     Hist    `json:"histogram"`
}

// newScoreDist summarises values (consumed: sorted in place). Quantiles
// are exact nearest-rank over the sorted values; the summation order
// for Mean is the sorted order, so the result is independent of how
// the values were collected.
func newScoreDist(values []float64, bounds []float64) ScoreDist {
	d := ScoreDist{Hist: Hist{Bounds: bounds, Counts: make([]int64, len(bounds)+1)}}
	d.Count = int64(len(values))
	if len(values) == 0 {
		return d
	}
	sort.Float64s(values)
	var sum float64
	var zeros, ones int64
	for _, v := range values {
		sum += v
		d.Hist.observe(v)
		if v == 0 {
			zeros++
		}
		if v >= 1-oneEps {
			ones++
		}
	}
	d.Mean = sum / float64(len(values))
	d.Min, d.Max = values[0], values[len(values)-1]
	d.P50 = quantile(values, 0.50)
	d.P90 = quantile(values, 0.90)
	d.P99 = quantile(values, 0.99)
	d.ZeroMass = float64(zeros) / float64(len(values))
	d.OneMass = float64(ones) / float64(len(values))
	return d
}

// quantile is the nearest-rank quantile of sorted values: the smallest
// value v such that at least ceil(q*n) values are <= v.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

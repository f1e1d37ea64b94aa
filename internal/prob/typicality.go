package prob

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Ranked is a label with a probability score, sorted descending in all
// APIs that return slices of it.
type Ranked struct {
	Label string
	Score float64
}

// Typicality computes T(i|x) (instantiation) and T(x|i) (abstraction)
// over a plausibility-annotated taxonomy DAG, per Section 4.2.
//
// A Typicality is safe for concurrent use by multiple goroutines once
// NewTypicality returns: the reachability table is immutable after
// construction and the memoised T(i|x) tables are guarded by a lock.
type Typicality struct {
	g *graph.Frozen
	// reach holds P(x,y): the probability that at least one path connects
	// x down to y, from Algorithm 3. Keyed by x<<32|y. P(x,x)=1 implicit.
	reach map[uint64]float64
	// instMu guards instCache; queries memoise lazily, so concurrent
	// readers race on the map without it.
	instMu sync.RWMutex
	// instCache memoises the normalised T(i|x) table per concept.
	instCache map[graph.NodeID][]Ranked
	// conceptMass is the prior weight of each concept (its outgoing
	// evidence mass), used by the Bayes inversion for T(x|i).
	conceptMass map[graph.NodeID]float64
	totalMass   float64
}

func key(x, y graph.NodeID) uint64 { return uint64(x)<<32 | uint64(y) }

// Options configures Algorithm 3 and the typicality caches. The zero
// value runs the DP at GOMAXPROCS workers with telemetry discarded.
type Options struct {
	// Workers bounds the per-level fan-out of the reachability DP;
	// <= 0 means GOMAXPROCS. The reach table is byte-identical at every
	// worker count (see ARCHITECTURE.md for the determinism argument).
	Workers int
	// Reporter receives stage telemetry: the DP is timed and its table
	// size reported under stage "prob.algorithm3". Nil discards it.
	Reporter obs.StageReporter
	// Prev enables the incremental DP: reach rows of nodes outside the
	// dirty closure are copied from this previously built engine (node
	// identity resolved by label) instead of recomputed. Requires Seeds.
	Prev *Typicality
	// Seeds are the nodes of the *new* graph whose incoming edge multiset
	// (parent label, count, plausibility) differs from Prev's graph —
	// including nodes Prev's graph lacks. The dirty closure is the seeds
	// plus all their descendants: a node outside it has an unchanged
	// ancestor cone, so its P(·,y) row is provably identical and safe to
	// copy. Ignored when Prev is nil.
	Seeds []graph.NodeID
}

// NewTypicality runs Algorithm 3 over the DAG and prepares the caches.
// The graph's edges must carry counts; plausibilities default to a
// count-saturating estimate when absent (0).
func NewTypicality(g *graph.Frozen) (*Typicality, error) {
	return New(g, Options{})
}

// reachEntry is one computed P(x,y) for a fixed y — the per-node row
// buffer the parallel DP fills before the serial merge.
type reachEntry struct {
	x graph.NodeID
	p float64
}

// New runs Algorithm 3 with explicit options.
//
// Within one topological level every node's P(·,y) row depends only on
// rows from strictly earlier levels (TopoLevels places all of y's
// parents before y), so rows of one level are computed concurrently
// into per-node buffers and merged into the reach table in node order
// between levels. No goroutine writes state another reads, and the
// per-row float arithmetic is the serial code unchanged, so the table
// is byte-identical to a workers=1 run.
func New(g *graph.Frozen, opts Options) (*Typicality, error) {
	rep := obs.ReporterOrNop(opts.Reporter)
	workers := parallel.Workers(opts.Workers)
	rep.StageStart(obs.StageProbAlgorithm3)
	dpStart := time.Now()
	t := &Typicality{
		g:           g,
		reach:       make(map[uint64]float64),
		instCache:   make(map[graph.NodeID][]Ranked),
		conceptMass: make(map[graph.NodeID]float64),
	}
	levels, err := g.TopoLevels()
	if err != nil {
		return nil, err
	}
	// Incremental mode: mark the dirty closure (seeds plus descendants)
	// and seed the table with the previous build's rows for every clean
	// node. A clean node's entire ancestor cone is clean — were any
	// ancestor dirty, the node would be its descendant and dirty too —
	// so the copied row is exactly what the full DP would recompute.
	var dirtyRows, reusedEntries int64
	var dirty map[graph.NodeID]bool
	if opts.Prev != nil {
		dirty = make(map[graph.NodeID]bool, len(opts.Seeds))
		for _, s := range opts.Seeds {
			if dirty[s] {
				continue
			}
			dirty[s] = true
			for _, d := range g.Descendants(s) {
				dirty[d] = true
			}
		}
		prev := opts.Prev
		for k, p := range prev.reach {
			x, y := graph.NodeID(k>>32), graph.NodeID(k&0xFFFFFFFF)
			ny := g.Lookup(prev.g.Label(y))
			if ny == graph.NoNode || dirty[ny] {
				continue
			}
			nx := g.Lookup(prev.g.Label(x))
			if nx == graph.NoNode {
				continue
			}
			t.reach[key(nx, ny)] = p
			reusedEntries++
		}
	}
	// Algorithm 3: traverse top-down; when a node y is reached, every
	// ancestor x of its parents already has P(x, parent) computed.
	//
	//	P(x,y) = 1 - Π_{z ∈ Parent(y)} (1 - P(z,y) · P(x,z))
	ctx := context.Background()
	for _, level := range levels {
		rows := make([][]reachEntry, len(level))
		// Fan out: each node of the level computes its row reading only
		// prior-level entries of t.reach; writes go to rows[i]. In
		// incremental mode clean nodes keep their copied rows.
		if err := parallel.ForEach(ctx, workers, len(level), func(i int) error {
			if dirty == nil || dirty[level[i]] {
				rows[i] = t.reachRow(level[i])
			}
			return nil
		}); err != nil {
			return nil, err
		}
		// Serial merge in node order. Map insertion order is irrelevant
		// to lookups, but merging here (not in the workers) keeps every
		// write single-threaded between fan-outs.
		for i, row := range rows {
			y := level[i]
			if dirty != nil && dirty[y] {
				dirtyRows++
			}
			for _, e := range row {
				t.reach[key(e.x, y)] = e.p
			}
		}
	}
	// The concept-mass prior accumulates totalMass in Concepts() order;
	// kept serial so the float summation order (and thus the snapshot's
	// derived scores) never depends on scheduling.
	for _, x := range g.Concepts() {
		var m float64
		for _, e := range g.Children(x) {
			m += float64(e.Count) * edgePlausibility(e)
		}
		t.conceptMass[x] = m
		t.totalMass += m
	}
	rep.Count(obs.StageProbAlgorithm3, "reach_entries", int64(len(t.reach)))
	rep.Count(obs.StageProbAlgorithm3, "topo_levels", int64(len(levels)))
	rep.Count(obs.StageProbAlgorithm3, "concepts", int64(len(t.conceptMass)))
	rep.Count(obs.StageProbAlgorithm3, "workers", int64(workers))
	if opts.Prev != nil {
		rep.Count(obs.StageProbAlgorithm3, "dirty_rows", dirtyRows)
		rep.Count(obs.StageProbAlgorithm3, "reused_entries", reusedEntries)
	}
	rep.StageEnd(obs.StageProbAlgorithm3, time.Since(dpStart))
	return t, nil
}

// reachRow computes P(x, y) for every candidate ancestor x of one node,
// reading only reach entries of strictly earlier topological levels.
// The candidate set is sorted so the row — and any iteration over it —
// is deterministic.
func (t *Typicality) reachRow(y graph.NodeID) []reachEntry {
	parents := t.g.Parents(y)
	if len(parents) == 0 {
		return nil
	}
	// Candidate ancestors: parents plus every x with P(x,z) known.
	anc := make(map[graph.NodeID]bool)
	for _, pe := range parents {
		anc[pe.To] = true
	}
	for _, pe := range parents {
		for _, x := range t.g.Ancestors(pe.To) {
			anc[x] = true
		}
	}
	xs := make([]graph.NodeID, 0, len(anc))
	for x := range anc {
		xs = append(xs, x)
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	row := make([]reachEntry, 0, len(xs))
	for _, x := range xs {
		q := 1.0
		for _, pe := range parents {
			pxz := 1.0
			if x != pe.To {
				pxz = t.reach[key(x, pe.To)]
			}
			q *= 1 - edgePlausibility(pe)*pxz
		}
		if p := 1 - q; p > 0 {
			row = append(row, reachEntry{x: x, p: p})
		}
	}
	return row
}

// edgePlausibility returns the edge's plausibility, substituting a
// count-saturating estimate when the edge was never scored.
func edgePlausibility(e graph.Edge) float64 {
	if e.Plausibility > 0 {
		return e.Plausibility
	}
	// 1 - 2^-n, capped: repeated sightings make a claim plausible.
	n := e.Count
	if n > 10 {
		n = 10
	}
	p := 1.0
	for i := int64(0); i < n; i++ {
		p *= 0.5
	}
	return 1 - p
}

// DirtySeeds compares two taxonomy graphs and returns, sorted, the nodes
// of next whose incoming edge multiset (parent label, count, plausibility
// bits) differs from prev's node of the same label — including nodes prev
// lacks entirely. These are the seeds of the incremental DP's dirty
// closure (Options.Seeds).
func DirtySeeds(prev, next *graph.Frozen) []graph.NodeID {
	inSig := func(g *graph.Frozen, id graph.NodeID) []string {
		parents := g.Parents(id)
		sig := make([]string, len(parents))
		for i, pe := range parents {
			sig[i] = fmt.Sprintf("%s\x00%d\x00%x", g.Label(pe.To), pe.Count, math.Float64bits(pe.Plausibility))
		}
		sort.Strings(sig)
		return sig
	}
	var seeds []graph.NodeID
	for id := 0; id < next.NumNodes(); id++ {
		nid := graph.NodeID(id)
		pid := prev.Lookup(next.Label(nid))
		if pid == graph.NoNode {
			seeds = append(seeds, nid)
			continue
		}
		a, b := inSig(next, nid), inSig(prev, pid)
		if len(a) != len(b) {
			seeds = append(seeds, nid)
			continue
		}
		for i := range a {
			if a[i] != b[i] {
				seeds = append(seeds, nid)
				break
			}
		}
	}
	return seeds
}

// Reach returns P(x, y), the probability that some path connects x to y.
func (t *Typicality) Reach(x, y graph.NodeID) float64 {
	if x == y {
		return 1
	}
	return t.reach[key(x, y)]
}

// InstancesOf returns the instances of concept x ranked by typicality
// T(i|x) (Eq. 4): evidence from x itself and from every descendant
// concept y, weighted by P(x,y) · n(y,i) · P(y,i), normalised over Ix.
func (t *Typicality) InstancesOf(x graph.NodeID) []Ranked {
	t.instMu.RLock()
	cached, ok := t.instCache[x]
	t.instMu.RUnlock()
	if ok {
		return cached
	}
	scores := make(map[graph.NodeID]float64)
	concepts := append([]graph.NodeID{x}, t.g.Descendants(x)...)
	for _, y := range concepts {
		if t.g.Kind(y) != graph.KindConcept {
			continue
		}
		pxy := t.Reach(x, y)
		if pxy == 0 {
			continue
		}
		for _, e := range t.g.Children(y) {
			if t.g.Kind(e.To) != graph.KindInstance {
				continue
			}
			scores[e.To] += pxy * float64(e.Count) * edgePlausibility(e)
		}
	}
	// Sum and emit in node order: map iteration order varies per run,
	// and float addition is not associative, so normalising in a random
	// order would make scores differ in their last bits between runs —
	// breaking the contract that two builds of the same corpus answer
	// queries bit-identically.
	ids := make([]graph.NodeID, 0, len(scores))
	for i := range scores {
		ids = append(ids, i)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	var total float64
	for _, i := range ids {
		total += scores[i]
	}
	out := make([]Ranked, 0, len(ids))
	for _, i := range ids {
		score := scores[i]
		if total > 0 {
			score /= total
		}
		out = append(out, Ranked{Label: t.g.Label(i), Score: score})
	}
	sortRanked(out)
	t.instMu.Lock()
	t.instCache[x] = out
	t.instMu.Unlock()
	return out
}

// ConceptsOf returns the concepts an instance belongs to, ranked by the
// abstraction typicality T(x|i) obtained from T(i|x) by Bayes' rule with
// the concept-mass prior.
func (t *Typicality) ConceptsOf(i graph.NodeID) []Ranked {
	type cand struct {
		x graph.NodeID
		p float64
	}
	var cands []cand
	var norm float64
	for _, x := range t.g.Ancestors(i) {
		if t.g.Kind(x) != graph.KindConcept {
			continue
		}
		tix := t.instanceScore(x, i)
		if tix <= 0 {
			continue
		}
		prior := t.conceptMass[x] / t.totalMass
		p := tix * prior
		cands = append(cands, cand{x, p})
		norm += p
	}
	out := make([]Ranked, 0, len(cands))
	for _, c := range cands {
		p := c.p
		if norm > 0 {
			p = c.p / norm
		}
		out = append(out, Ranked{Label: t.g.Label(c.x), Score: p})
	}
	sortRanked(out)
	return out
}

// instanceScore returns T(i|x) for one instance from the cached table.
func (t *Typicality) instanceScore(x, i graph.NodeID) float64 {
	label := t.g.Label(i)
	for _, r := range t.InstancesOf(x) {
		if r.Label == label {
			return r.Score
		}
	}
	return 0
}

// ConceptsOfSet conceptualises a set of instances jointly: assuming the
// instances are independently drawn from one concept (the Bayesian
// reading of Section 5.3.2), score(x) ∝ prior(x) · Π_i T(i|x). Instances
// unknown to the taxonomy are ignored; ok=false when none is known.
func (t *Typicality) ConceptsOfSet(instances []graph.NodeID) ([]Ranked, bool) {
	known := instances[:0:0]
	for _, i := range instances {
		if i != graph.NoNode {
			known = append(known, i)
		}
	}
	if len(known) == 0 {
		return nil, false
	}
	// Candidate concepts: ancestors of every known instance.
	counts := make(map[graph.NodeID]int)
	for _, i := range known {
		for _, x := range t.g.Ancestors(i) {
			if t.g.Kind(x) == graph.KindConcept {
				counts[x]++
			}
		}
	}
	var cands []graph.NodeID
	for x, c := range counts {
		if c == len(known) {
			cands = append(cands, x)
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a] < cands[b] })
	var out []Ranked
	var norm float64
	for _, x := range cands {
		score := t.conceptMass[x] / t.totalMass
		for _, i := range known {
			score *= t.instanceScore(x, i)
		}
		if score > 0 {
			out = append(out, Ranked{Label: t.g.Label(x), Score: score})
			norm += score
		}
	}
	for i := range out {
		out[i].Score /= norm
	}
	sortRanked(out)
	return out, len(out) > 0
}

func sortRanked(rs []Ranked) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Score != rs[j].Score {
			return rs[i].Score > rs[j].Score
		}
		return rs[i].Label < rs[j].Label
	})
}

// TopK truncates a ranked list to its first k entries.
func TopK(rs []Ranked, k int) []Ranked {
	if k < len(rs) {
		return rs[:k]
	}
	return rs
}

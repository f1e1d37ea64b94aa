// Package core is the public face of the Probase reproduction: it wires
// the iterative extractor (Section 2), the taxonomy builder (Section 3)
// and the probabilistic layer (Section 4) into one pipeline, and exposes
// the two conceptualisation primitives the paper builds its applications
// on — instantiation (concept -> typical instances) and abstraction
// (instances -> typical concepts).
package core

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/extraction"
	"repro/internal/graph"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/prob"
	"repro/internal/taxonomy"
)

// Config assembles the pipeline stages' configurations.
type Config struct {
	Extraction extraction.Config
	Taxonomy   taxonomy.Config
	// Oracle labels training pairs for the plausibility model (the paper
	// uses WordNet; the reproduction uses a reference taxonomy). With a
	// nil oracle the Naive Bayes layer stays uninformative and
	// plausibility degrades to the count-based noisy-or.
	Oracle prob.Oracle
	// Workers bounds the worker pool of every parallel build stage:
	// extraction's map phase, the horizontal and vertical taxonomy
	// merges, plausibility annotation and the Algorithm 3 DP. It is
	// propagated to the extraction and taxonomy configs unless those
	// already set their own. The built Probase is byte-identical at
	// every worker count (see ARCHITECTURE.md); <= 0 means GOMAXPROCS.
	Workers int
	// Reporter receives stage telemetry from the whole pipeline. It is
	// propagated to the extraction and taxonomy stages unless those
	// configs carry their own reporter. Nil discards everything.
	Reporter obs.StageReporter
}

// BuildInfo reports what the pipeline did.
type BuildInfo struct {
	Rounds   []extraction.RoundStats
	Taxonomy taxonomy.BuildStats
	Parsed   int
	// Delta reports the incremental work of a DeltaBuild (zero-valued
	// except FullBuild after a from-scratch Build).
	Delta DeltaStats
}

// Probase is a built probabilistic taxonomy.
type Probase struct {
	// Store is Γ, the extracted pair store with evidence. Nil when the
	// Probase was loaded from a snapshot.
	Store *kb.Store
	// Graph is the taxonomy DAG with plausibility-annotated edges, as
	// the immutable CSR view the whole read path queries.
	Graph *graph.Frozen
	// Senses maps each concept label to its sense node labels.
	Senses map[string][]string
	// Info describes the build. Zero when loaded from a snapshot.
	Info BuildInfo
	// Extraction is the raw extraction result (per-round pair attribution
	// for the iteration experiments). Nil when loaded from a snapshot.
	Extraction *extraction.Result
	// Format records the on-disk snapshot format this Probase was loaded
	// from — the 4-byte magic ("PBC2" or "PBFL"); empty for an
	// in-memory build. internal/snapshot sets it; the serving layer
	// reports it on /v1/healthz.
	Format string
	// State is the resumable build residue a DeltaBuild extends from.
	// Populated by Build and DeltaBuild; persisted by SaveFull; nil for
	// graph-only snapshots.
	State *BuildState

	typ   *prob.Typicality
	model *prob.Model
}

// Build runs the full pipeline over corpus sentences: the staged
// sequence extract -> taxonomy -> train -> score -> typicality (see
// pipeline.go). DeltaBuild runs the same stages with dirty-set reuse.
func Build(inputs []extraction.Input, cfg Config) (*Probase, error) {
	p := newPipeline(cfg)
	p.stageExtract(inputs)
	p.stageTaxonomy()
	p.stageTrain()
	p.stageScore()
	if err := p.stageTypicality(nil, nil); err != nil {
		return nil, err
	}
	return p.finish(), nil
}

// AnnotatePlausibility scores every taxonomy edge with the evidence
// model's plausibility and writes the scores back onto the graph,
// returning the number of edges annotated (stage "prob.annotate").
//
// Scoring fans out per super-concept: Model.Plausibility only reads the
// trained Naive Bayes tables and the RWMutex-guarded Γ store, and the
// graph reads (Concepts, Label, Children) never see a concurrent write
// because scores land in per-concept buffers that a serial loop applies
// in Concepts() order afterwards. Plausibility values are not read back
// during scoring, so deferring the writes cannot change any score and
// the annotated graph is byte-identical at every worker count.
func AnnotatePlausibility(g *graph.Builder, model *prob.Model, workers int, rep obs.StageReporter) int64 {
	rep = obs.ReporterOrNop(rep)
	rep.StageStart(obs.StageProbAnnotate)
	annStart := time.Now()
	workers = parallel.Workers(workers)
	type scoredEdge struct {
		to graph.NodeID
		p  float64
	}
	concepts := g.Concepts()
	rows := make([][]scoredEdge, len(concepts))
	_ = parallel.ForEach(context.Background(), workers, len(concepts), func(i int) error {
		from := concepts[i]
		x := BaseLabel(g.Label(from))
		var row []scoredEdge
		for _, e := range g.Children(from) {
			y := BaseLabel(g.Label(e.To))
			if p := model.Plausibility(x, y); p > 0 {
				row = append(row, scoredEdge{to: e.To, p: p})
			}
		}
		rows[i] = row
		return nil
	})
	annotated := int64(0)
	for i, row := range rows {
		for _, se := range row {
			g.AddEdge(concepts[i], se.to, 0, se.p)
			annotated++
		}
	}
	rep.Count(obs.StageProbAnnotate, "edges_annotated", annotated)
	rep.Count(obs.StageProbAnnotate, "workers", int64(workers))
	rep.StageEnd(obs.StageProbAnnotate, time.Since(annStart))
	return annotated
}

func oracleOrUnknown(o prob.Oracle) prob.Oracle {
	if o != nil {
		return o
	}
	return func(x, y string) (bool, bool) { return false, false }
}

// BaseLabel strips the sense suffix from a taxonomy node label:
// "plant#2" -> "plant".
func BaseLabel(nodeLabel string) string {
	if i := strings.LastIndex(nodeLabel, "#"); i > 0 {
		return nodeLabel[:i]
	}
	return nodeLabel
}

// SensesOf returns the sense node labels of a concept surface form
// ("plants" -> ["plant#1", "plant#2"]), dominant sense first.
func (p *Probase) SensesOf(concept string) []string {
	key := extraction.CanonicalSuper(concept)
	if senses := p.Senses[key]; len(senses) > 0 {
		return senses
	}
	if p.Graph.Lookup(key) != graph.NoNode {
		return []string{key}
	}
	return nil
}

// conceptNode resolves a concept surface form to its dominant sense node.
func (p *Probase) conceptNode(concept string) (graph.NodeID, bool) {
	senses := p.SensesOf(concept)
	if len(senses) == 0 {
		return 0, false
	}
	id := p.Graph.Lookup(senses[0])
	return id, id != graph.NoNode
}

// InstancesOf returns the top-k typical instances of the concept's
// dominant sense, by T(i|x) — the paper's instantiation primitive.
func (p *Probase) InstancesOf(concept string, k int) []prob.Ranked {
	id, ok := p.conceptNode(concept)
	if !ok {
		return nil
	}
	return prob.TopK(p.typ.InstancesOf(id), k)
}

// InstancesOfSense ranks instances of one specific sense node label.
func (p *Probase) InstancesOfSense(senseLabel string, k int) []prob.Ranked {
	id := p.Graph.Lookup(senseLabel)
	if id == graph.NoNode {
		return nil
	}
	return prob.TopK(p.typ.InstancesOf(id), k)
}

// ConceptsOf returns the top-k concepts of a term by the abstraction
// typicality T(x|i).
func (p *Probase) ConceptsOf(term string, k int) []prob.Ranked {
	id := p.lookupTerm(term)
	if id == graph.NoNode {
		return nil
	}
	return prob.TopK(p.typ.ConceptsOf(id), k)
}

// Conceptualize abstracts a set of terms jointly (Section 5.3.2: India,
// China, Brazil -> BRIC country / emerging market). Unknown terms are
// ignored; ok is false when no term is known.
func (p *Probase) Conceptualize(terms []string, k int) ([]prob.Ranked, bool) {
	ids := make([]graph.NodeID, len(terms))
	for i, term := range terms {
		ids[i] = p.lookupTerm(term)
	}
	ranked, ok := p.typ.ConceptsOfSet(ids)
	if !ok {
		return nil, false
	}
	return prob.TopK(ranked, k), true
}

// lookupTerm resolves an instance or concept surface form to a node.
// Multi-sense concept labels resolve to their dominant sense.
func (p *Probase) lookupTerm(term string) graph.NodeID {
	if id := p.Graph.Lookup(extraction.CanonicalSub(term)); id != graph.NoNode {
		return id
	}
	if id := p.Graph.Lookup(extraction.CanonicalSuper(term)); id != graph.NoNode {
		return id
	}
	if id, ok := p.conceptNode(term); ok {
		return id
	}
	// Sense-qualified labels pass through.
	return p.Graph.Lookup(term)
}

// Plausibility returns P(x, y) for an isA claim. With a live model it is
// the noisy-or over evidence; after Load it is the stored edge value.
func (p *Probase) Plausibility(x, y string) float64 {
	cx, cy := extraction.CanonicalSuper(x), extraction.CanonicalSub(y)
	if p.model != nil && p.Store != nil {
		if v := p.model.Plausibility(cx, cy); v > 0 {
			return v
		}
		// Fall through: the pair may exist only in the graph (merged or
		// inferred), not in Γ.
	}
	// x sits in super-concept position: prefer its concept sense over a
	// dangling leaf that happens to share the label.
	from, ok := p.conceptNode(cx)
	if !ok {
		from = p.lookupTerm(cx)
	}
	to := p.lookupTerm(cy)
	if from == graph.NoNode || to == graph.NoNode {
		return 0
	}
	if e, ok := p.Graph.EdgeBetween(from, to); ok && e.Plausibility > 0 {
		return e.Plausibility
	}
	// No scored direct edge: fall back to the Algorithm 3 reachability
	// P(x,y) — the probability that at least one path connects x to y.
	return p.typ.Reach(from, to)
}

// Typicality exposes the typicality engine for advanced callers
// (applications that need Reach or sense-level scoring).
func (p *Probase) Typicality() *prob.Typicality { return p.typ }

// Merge imports another taxonomy's edges by label and returns a new
// Probase — the Section 5.2 remark that "the instances of large concepts
// in Freebase ... can be easily merged into Probase". A source concept
// label that matches one of ours attaches to our dominant sense;
// everything else is interned fresh. Counts accumulate; imported edges
// keep their plausibility. An import edge that would close a cycle is
// skipped.
//
// The frozen base is thawed (graph.NewBuilderFrom) and the import
// applied. When a live evidence model is available, plausibility is
// re-annotated over the merged graph, so edges whose accumulated counts
// changed the noisy-or are rescored instead of keeping stale values;
// imported pairs unknown to Γ score zero and keep their stored
// plausibility.
func (p *Probase) Merge(other *graph.Frozen) (*Probase, error) {
	g := graph.NewBuilderFrom(p.Graph)
	resolve := func(label string, conceptPosition bool) graph.NodeID {
		if conceptPosition {
			if senses := p.Senses[extraction.CanonicalSuper(label)]; len(senses) > 0 {
				return g.Intern(senses[0])
			}
		}
		if id := g.Lookup(label); id != graph.NoNode {
			return id
		}
		return g.Intern(label)
	}
	type pending struct {
		from, to graph.NodeID
		e        graph.Edge
	}
	var edges []pending
	for id := 0; id < other.NumNodes(); id++ {
		fromLabel := other.Label(graph.NodeID(id))
		for _, e := range other.Children(graph.NodeID(id)) {
			edges = append(edges, pending{
				from: resolve(fromLabel, true),
				to:   resolve(other.Label(e.To), false),
				e:    e,
			})
		}
	}
	for _, pe := range edges {
		if pe.from == pe.to || g.HasPath(pe.to, pe.from) {
			continue
		}
		g.AddEdge(pe.from, pe.to, pe.e.Count, pe.e.Plausibility)
	}
	if p.model != nil && p.Store != nil {
		// Accumulated counts feed the count-based fallback and the
		// beyond-cap extrapolation, so merged-in sightings can move a
		// pair's noisy-or; rescore rather than serve stale values.
		AnnotatePlausibility(g, p.model, 0, nil)
	}
	fz := g.Freeze()
	typ, err := prob.NewTypicality(fz)
	if err != nil {
		return nil, fmt.Errorf("core: merge broke the DAG: %w", err)
	}
	return &Probase{
		Store:      p.Store,
		Graph:      fz,
		Senses:     sensesFromGraph(fz),
		Info:       p.Info,
		Extraction: p.Extraction,
		Format:     p.Format,
		// State is deliberately dropped: a DeltaBuild reassembles the graph
		// from the extraction/merge state alone and would silently lose the
		// imported edges. Merge after delta-building, not before.
		typ:   typ,
		model: p.model,
	}, nil
}

// Save writes the taxonomy snapshot (graph, counts, plausibilities) as
// a "PBC2" graph snapshot. Γ and the evidence model are rebuildable
// from the corpus and are not persisted.
func (p *Probase) Save(w io.Writer) error { return p.Graph.Save(w) }

// Load reads a snapshot written by Save and rebuilds the query engine
// over the CSR view.
func Load(r io.Reader) (*Probase, error) {
	g, err := graph.LoadFrozen(r)
	if err != nil {
		return nil, err
	}
	return FromFrozen(g)
}

// FromFrozen builds the query engine over an already-loaded graph view
// — the seam the memory-mapped loading path enters through
// (snapshot.OpenMapped): graph.LoadMapped produces the Frozen, this
// wires typicality and the sense index over it.
func FromFrozen(g *graph.Frozen) (*Probase, error) {
	typ, err := prob.NewTypicality(g)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot is not a DAG: %w", err)
	}
	return &Probase{Graph: g, Senses: sensesFromGraph(g), typ: typ}, nil
}

// Close releases resources held by the graph — for a
// memory-mapped snapshot, the mapping itself. After Close on a mapped
// Probase every label string and edge slice previously obtained is
// invalid, so no query may run concurrently with or after it; the
// serving layer guarantees that by refcounting snapshot epochs and
// closing only when the last in-flight request drains. Idempotent, and
// a no-op for heap-backed graphs.
func (p *Probase) Close() error { return p.Graph.Close() }

// Mapped reports whether the graph is a zero-copy view of a
// memory-mapped snapshot. Surfaced on /v1/healthz so operators can
// confirm which storage mode a replica runs.
func (p *Probase) Mapped() bool { return p.Graph.Mapped() }

// sensesFromGraph rebuilds the concept -> sense-node index from node
// labels. Sense names are ordered by dominance at build time; restore
// that order numerically ("x#2" before "x#10").
func sensesFromGraph(g *graph.Frozen) map[string][]string {
	senses := make(map[string][]string)
	for _, id := range g.Concepts() {
		label := g.Label(id)
		senses[BaseLabel(label)] = append(senses[BaseLabel(label)], label)
	}
	for _, list := range senses {
		sort.Slice(list, func(i, j int) bool {
			return senseIndex(list[i]) < senseIndex(list[j])
		})
	}
	return senses
}

// senseIndex extracts the numeric sense suffix ("plant#2" -> 2); bare
// labels rank first.
func senseIndex(label string) int {
	i := strings.LastIndex(label, "#")
	if i <= 0 {
		return 0
	}
	n := 0
	for _, r := range label[i+1:] {
		if r < '0' || r > '9' {
			return 0
		}
		n = n*10 + int(r-'0')
	}
	return n
}

package taxonomy

import (
	"fmt"
	"time"

	"repro/internal/extraction"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Config controls taxonomy construction.
type Config struct {
	// Sim is the child-set similarity; defaults to AbsoluteOverlap{Delta: 2}.
	Sim Similarity
	// MinSenseEvidence drops sense clusters backed by fewer than this many
	// sentences *when the label has a dominant cluster*; tiny fragment
	// clusters are usually extraction noise. 0 keeps everything.
	MinSenseEvidence int
	// DisableAdoption skips the fragment-adoption pass between the
	// horizontal and vertical stages (see engine.adoptFragments); mainly
	// for the merge-order experiments, which study the pure Algorithm 2.
	DisableAdoption bool
	// Workers parallelises the horizontal stage over root labels and
	// the vertical stage over sense clusters (both via internal/parallel).
	// The built taxonomy is byte-identical at every worker count;
	// 0 means GOMAXPROCS.
	Workers int
	// Reporter receives merge-stage telemetry (stages "taxonomy",
	// "taxonomy.horizontal", "taxonomy.vertical", "taxonomy.assemble");
	// nil discards it.
	Reporter obs.StageReporter
}

func (c Config) withDefaults() Config {
	if c.Sim == nil {
		c.Sim = AbsoluteOverlap{Delta: 2}
	}
	c.Workers = parallel.Workers(c.Workers)
	return c
}

// BuildStats reports construction work, for the Theorem 2 benchmarks and
// the cycle-refusal audit.
type BuildStats struct {
	Locals          int // input local taxonomies (sentences)
	HorizontalOps   int
	VerticalOps     int
	Adoptions       int // fragment adoptions (reproduction-scale pass)
	Senses          int // sense clusters after merging
	MultiSense      int // labels with more than one sense
	SkippedCycles   int // candidate edges refused to keep the DAG acyclic
	DroppedClusters int // clusters dropped by MinSenseEvidence
}

// Result is a constructed taxonomy. State is the merge state the graph
// was assembled from; delta builds feed it back through MergeDelta.
type Result struct {
	Graph  *graph.Builder
	Senses map[string][]string // root label -> node labels of its senses
	Stats  BuildStats
	State  *State
}

// SenseLabel names the i-th sense (0-based) of a label: the bare label
// when the label has a single sense, otherwise "label#i+1".
func SenseLabel(label string, i, total int) string {
	if total <= 1 {
		return label
	}
	return fmt.Sprintf("%s#%d", label, i+1)
}

// Build assembles the taxonomy DAG from per-sentence extraction groups:
// Merge (horizontal fixpoint + fragment adoption, per label) followed by
// Assemble (vertical linking + DAG assembly). The two stages communicate
// through the persistable State so that delta builds can replay Merge
// only for dirty labels (MergeDelta) and still share this assembly path.
func Build(groups []extraction.Group, cfg Config) *Result {
	cfg = cfg.withDefaults()
	rep := obs.ReporterOrNop(cfg.Reporter)
	rep.StageStart(obs.StageTaxonomy)
	buildStart := time.Now()
	state := mergeLabels(collectLabels(groups), cfg, rep)
	res := assembleState(state, cfg, rep)
	rep.StageEnd(obs.StageTaxonomy, time.Since(buildStart))
	return res
}

// BuildDelta is Build with merge-state reuse: labels outside dirtyRoots
// keep their clusters from prev (see MergeDelta for the soundness
// contract), and the shared assembly path recomputes vertical links and
// the DAG. The result equals Build over the same groups.
func BuildDelta(prev *State, groups []extraction.Group, dirtyRoots []string, cfg Config) *Result {
	cfg = cfg.withDefaults()
	rep := obs.ReporterOrNop(cfg.Reporter)
	rep.StageStart(obs.StageTaxonomy)
	buildStart := time.Now()
	state := MergeDelta(prev, groups, dirtyRoots, cfg)
	res := assembleState(state, cfg, rep)
	rep.StageEnd(obs.StageTaxonomy, time.Since(buildStart))
	return res
}

package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/extraction"
	"repro/internal/graph"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/prob"
	"repro/internal/taxonomy"
)

// BuildState is the resumable residue of a build: everything a delta
// build needs beyond the queryable Probase itself. It rides inside the
// full "PBFL" snapshot as an optional third section, so an operator can
// reload yesterday's snapshot and extend it over today's corpus delta
// without re-reading yesterday's corpus.
type BuildState struct {
	// Checkpoint is the extraction fold's boundary state (Γ at the last
	// chunk boundary, pending sentences, raw tail).
	Checkpoint *extraction.Checkpoint
	// Taxonomy is the per-label merge state; clean labels are reused
	// verbatim by the next build.
	Taxonomy *taxonomy.State
	// NB is the trained evidence model's count tables; the delta trainer
	// advances them by untrain/retrain of dirty pairs only.
	NB *prob.NaiveBayes
}

// DeltaStats reports the incremental work a DeltaBuild actually did, as
// opposed to what a full rebuild would have done. The same numbers go to
// the stage reporter; this struct surfaces them to callers (probase-build
// -stats-out).
type DeltaStats struct {
	DirtyRoots    int  `json:"dirty_roots"`    // extraction roots touched by the delta
	DirtyLabels   int  `json:"dirty_labels"`   // taxonomy labels re-merged
	ReusedLabels  int  `json:"reused_labels"`  // taxonomy labels kept verbatim
	DirtyPairs    int  `json:"dirty_pairs"`    // Γ pairs untrained + retrained
	RetrainedRows int  `json:"retrained_rows"` // evidence examples retrained
	DirtySeeds    int  `json:"dirty_seeds"`    // graph nodes seeding the Algorithm 3 re-run
	MergedSenses  int  `json:"merged_senses"`  // sense clusters in the delta output
	FullBuild     bool `json:"full_build"`     // true when built from scratch
}

// pipeline carries one build's intermediate products between its stages.
// Build and DeltaBuild run the same stage sequence; the delta variants
// reuse the previous build's state where the dirty-set analysis proves
// the full stage would recompute it unchanged:
//
//	extract   -> resume the fold from the checkpoint (extraction.Resume)
//	taxonomy  -> re-merge only dirty root labels (taxonomy.BuildDelta)
//	train     -> untrain/retrain only dirty pairs (prob.TrainDelta)
//	annotate  -> full (writes into the freshly assembled builder)
//	freeze    -> full (CSR encode is linear and cheap)
//	typicality-> recompute only the dirty closure's DP rows (prob.Options.Prev)
//
// Every delta stage is exact — the contract, tested stage by stage and
// end to end, is that the finished Probase is byte-identical to a
// from-scratch Build over the concatenated corpus.
type pipeline struct {
	cfg     Config
	workers int
	rep     obs.StageReporter

	res   *extraction.Result
	tax   *taxonomy.Result
	model *prob.Model
	fz    *graph.Frozen
	typ   *prob.Typicality
	stats DeltaStats
}

// newPipeline normalises the config: the shared reporter and worker
// bound propagate into each stage config unless that stage set its own,
// and the sense-evidence default applies exactly as in the monolithic
// Build it replaced.
func newPipeline(cfg Config) *pipeline {
	rep := obs.ReporterOrNop(cfg.Reporter)
	if cfg.Extraction.Reporter == nil {
		cfg.Extraction.Reporter = rep
	}
	if cfg.Taxonomy.Reporter == nil {
		cfg.Taxonomy.Reporter = rep
	}
	workers := parallel.Workers(cfg.Workers)
	if cfg.Extraction.Workers == 0 {
		cfg.Extraction.Workers = workers
	}
	if cfg.Taxonomy.Workers == 0 {
		cfg.Taxonomy.Workers = workers
	}
	if cfg.Taxonomy.Sim == nil && cfg.Taxonomy.MinSenseEvidence == 0 {
		// Default: drop single-sighting fragment senses; their pairs stay
		// queryable in Γ, but they would pollute the sense inventory.
		cfg.Taxonomy.MinSenseEvidence = 2
	}
	return &pipeline{cfg: cfg, workers: workers, rep: rep}
}

// stageExtract runs the iterative extraction fixpoint from scratch.
func (p *pipeline) stageExtract(inputs []extraction.Input) {
	p.res = extraction.Run(inputs, p.cfg.Extraction)
	p.stats.FullBuild = true
}

// stageResume continues the extraction fold from a checkpoint over the
// corpus delta.
func (p *pipeline) stageResume(cp *extraction.Checkpoint, inputs []extraction.Input) error {
	res, err := extraction.Resume(cp, inputs, p.cfg.Extraction)
	if err != nil {
		return err
	}
	p.res = res
	p.stats.DirtyRoots = len(res.DirtyRoots)
	return nil
}

// stageTaxonomy merges and assembles the taxonomy from scratch.
func (p *pipeline) stageTaxonomy() {
	p.tax = taxonomy.Build(p.res.Groups, p.cfg.Taxonomy)
	p.stats.MergedSenses = p.tax.Stats.Senses
}

// stageTaxonomyDelta re-merges only the labels the extraction delta
// touched and reassembles.
func (p *pipeline) stageTaxonomyDelta(prev *taxonomy.State) {
	p.tax = taxonomy.BuildDelta(prev, p.res.Groups, p.res.DirtyRoots, p.cfg.Taxonomy)
	p.stats.MergedSenses = p.tax.Stats.Senses
	dirty := make(map[string]bool, len(p.res.DirtyRoots))
	for _, r := range p.res.DirtyRoots {
		dirty[r] = true
	}
	for _, ls := range p.tax.State.Labels {
		if dirty[ls.Label] {
			p.stats.DirtyLabels++
		} else {
			p.stats.ReusedLabels++
		}
	}
}

// stageTrain trains the evidence model over the full Γ.
func (p *pipeline) stageTrain() {
	p.rep.StageStart(obs.StageProbTrain)
	start := time.Now()
	p.model = prob.Train(p.res.Store, oracleOrUnknown(p.cfg.Oracle))
	p.rep.StageEnd(obs.StageProbTrain, time.Since(start))
}

// stageTrainDelta advances the previous model over the Γ diff. The
// oracle must be the one the base model was trained with; with matching
// oracles the advanced model equals a full retrain bit for bit.
func (p *pipeline) stageTrainDelta(prevNB *prob.NaiveBayes, base *kb.Store) {
	p.rep.StageStart(obs.StageProbTrain)
	start := time.Now()
	model, stats := prob.TrainDelta(prevNB, base, p.res.Store, oracleOrUnknown(p.cfg.Oracle))
	p.model = model
	p.stats.DirtyPairs = stats.DirtyPairs
	p.stats.RetrainedRows = stats.Retrained
	p.rep.Count(obs.StageProbTrain, "dirty_pairs", int64(stats.DirtyPairs))
	p.rep.Count(obs.StageProbTrain, "bucket_drift_pairs", int64(stats.BucketDrift))
	p.rep.Count(obs.StageProbTrain, "retrained_examples", int64(stats.Retrained))
	p.rep.StageEnd(obs.StageProbTrain, time.Since(start))
}

// stageScore annotates every taxonomy edge with the evidence model's
// plausibility and freezes the builder into the serving CSR view.
func (p *pipeline) stageScore() {
	AnnotatePlausibility(p.tax.Graph, p.model, p.workers, p.rep)
	p.fz = p.tax.Graph.Freeze()
}

// stageTypicality runs the Algorithm 3 DP. With a previous typicality
// engine, only the rows of nodes whose ancestor evidence changed are
// recomputed (prob.DirtySeeds + the descendant closure); clean rows are
// copied across by label.
func (p *pipeline) stageTypicality(prev *prob.Typicality, prevGraph *graph.Frozen) error {
	opts := prob.Options{Workers: p.workers, Reporter: p.rep}
	if prev != nil && prevGraph != nil {
		seeds := prob.DirtySeeds(prevGraph, p.fz)
		p.stats.DirtySeeds = len(seeds)
		opts.Prev = prev
		opts.Seeds = seeds
	}
	typ, err := prob.New(p.fz, opts)
	if err != nil {
		return fmt.Errorf("core: taxonomy is not a DAG: %w", err)
	}
	p.typ = typ
	return nil
}

// finish assembles the queryable Probase plus the BuildState the next
// delta build resumes from.
func (p *pipeline) finish() *Probase {
	return &Probase{
		Store:      p.res.Store,
		Graph:      p.fz,
		Senses:     p.tax.Senses,
		Extraction: p.res,
		Info: BuildInfo{
			Rounds:   p.res.Rounds,
			Taxonomy: p.tax.Stats,
			Parsed:   p.res.Parsed,
			Delta:    p.stats,
		},
		State: &BuildState{
			Checkpoint: p.res.Checkpoint,
			Taxonomy:   p.tax.State,
			NB:         p.model.NB(),
		},
		typ:   p.typ,
		model: p.model,
	}
}

// ErrNoBuildState reports a delta build attempted from a Probase that
// does not carry resumable state (graph-only snapshot, or a base built
// before the staged pipeline).
var ErrNoBuildState = errors.New("core: base has no build state; rebuild it or save with SaveFull")

// DeltaBuild extends a previously built Probase over a corpus delta.
// Each stage resumes from prev's BuildState and recomputes only the
// dirty set the delta actually touched; the result — graph bytes, sense
// inventory, every query answer — is identical to Build over the
// concatenated corpus, at a fraction of the wall time when the delta is
// small. cfg must match the base build's config (same similarity, chunk
// size, oracle and sense-evidence settings); the stages' equivalence
// guarantees hold only under the configuration that produced prev.
func DeltaBuild(prev *Probase, inputs []extraction.Input, cfg Config) (*Probase, error) {
	if prev == nil || prev.State == nil || prev.State.Checkpoint == nil ||
		prev.State.Taxonomy == nil || prev.State.NB == nil {
		return nil, ErrNoBuildState
	}
	if prev.Store == nil {
		return nil, ErrNoBuildState
	}
	p := newPipeline(cfg)
	if err := p.stageResume(prev.State.Checkpoint, inputs); err != nil {
		return nil, err
	}
	p.stageTaxonomyDelta(prev.State.Taxonomy)
	p.stageTrainDelta(prev.State.NB, prev.Store)
	p.stageScore()
	if err := p.stageTypicality(prev.typ, prev.Graph); err != nil {
		return nil, err
	}
	return p.finish(), nil
}

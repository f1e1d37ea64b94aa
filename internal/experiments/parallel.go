package experiments

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/prob"
	"repro/internal/taxonomy"
)

// ParallelTiming is one (stage, worker count) wall-clock measurement.
type ParallelTiming struct {
	Stage   string  `json:"stage"`
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
	// Speedup is the stage's workers=1 time divided by this time.
	Speedup float64 `json:"speedup"`
}

// ParallelResult reports the worker-pool scaling of the parallelized
// build stages (see ARCHITECTURE.md): the Algorithm 3 reachability DP,
// the Algorithm 2 horizontal and vertical merges, and plausibility
// annotation.
type ParallelResult struct {
	Timings []ParallelTiming `json:"timings"`
	// Deterministic is true when every stage produced byte-identical
	// output at every measured worker count — the concurrency
	// contract's observable half. The CI bench-compare job gates on it.
	Deterministic bool `json:"deterministic"`
}

// parallelWorkerCounts are the pool sizes the experiment measures; the
// CI gate compares the first and the last.
var parallelWorkerCounts = []int{1, 2, 4}

// alg3BenchGraph builds a layered synthetic DAG sized so the Algorithm 3
// DP dominates measurement noise: `width` nodes per level, each wired to
// three parents of the previous level, giving wide per-level fan-out
// (the axis the DP parallelizes over) and deep ancestor sets.
func alg3BenchGraph(levels, width int) *graph.Frozen {
	rng := rand.New(rand.NewSource(7))
	g := graph.NewBuilder()
	prev := []graph.NodeID{g.Intern("root")}
	for l := 0; l < levels; l++ {
		cur := make([]graph.NodeID, width)
		for i := range cur {
			cur[i] = g.Intern(fmt.Sprintf("l%dn%d", l, i))
			parents := 3
			if parents > len(prev) {
				parents = len(prev)
			}
			for p := 0; p < parents; p++ {
				from := prev[rng.Intn(len(prev))]
				g.AddEdge(from, cur[i], int64(rng.Intn(9)+1), 0.9)
			}
		}
		prev = cur
	}
	return g.Freeze()
}

// reachFingerprint hashes P(x,y) over every node pair, so two DP runs
// agree iff their reach tables agree.
func reachFingerprint(g *graph.Frozen, t *prob.Typicality) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	n := graph.NodeID(g.NumNodes())
	for x := graph.NodeID(0); x < n; x++ {
		for y := graph.NodeID(0); y < n; y++ {
			p := t.Reach(x, y)
			if p == 0 {
				continue
			}
			key := uint64(x)<<32 | uint64(y)
			bits := math.Float64bits(p)
			for i := 0; i < 8; i++ {
				buf[i] = byte(key >> uint(8*i))
				buf[8+i] = byte(bits >> uint(8*i))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// minSeconds times fn over reps runs and keeps the fastest, damping
// scheduler noise the way testing.B's -count min does.
func minSeconds(reps int, fn func()) float64 {
	best := math.MaxFloat64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		fn()
		if s := time.Since(t0).Seconds(); s < best {
			best = s
		}
	}
	return best
}

// ParallelExp measures the parallelized build stages at several worker
// counts and checks the determinism contract: output must be
// byte-identical at every count. Algorithm 3 runs on a synthetic
// layered DAG (controlled size, wide levels); the merge and annotation
// stages run on the corpus-derived build, timed through the stage
// telemetry seam.
func (s *Setup) ParallelExp() (*ParallelResult, string) {
	res := &ParallelResult{Deterministic: true}
	const reps = 3

	// Stage 1: Algorithm 3 reachability DP.
	ag := alg3BenchGraph(7, 160)
	var alg3Fp []uint64
	for _, w := range parallelWorkerCounts {
		var t *prob.Typicality
		secs := minSeconds(reps, func() {
			var err error
			t, err = prob.New(ag, prob.Options{Workers: w})
			if err != nil {
				panic(err)
			}
		})
		alg3Fp = append(alg3Fp, reachFingerprint(ag, t))
		res.Timings = append(res.Timings, ParallelTiming{Stage: "alg3", Workers: w, Seconds: secs})
	}

	// Stages 2+3: horizontal and vertical merges on the corpus build,
	// timed through the telemetry seam in one taxonomy.Build per rep.
	groups := s.PB.Extraction.Groups
	var taxSnapshots [][]byte
	for _, w := range parallelWorkerCounts {
		var hsecs, vsecs float64 = math.MaxFloat64, math.MaxFloat64
		var tax *taxonomy.Result
		for r := 0; r < reps; r++ {
			col := obs.NewStatsCollector()
			tax = taxonomy.Build(groups, taxonomy.Config{Workers: w, Reporter: col})
			for _, st := range col.Stages() {
				switch st.Name {
				case obs.StageTaxonomyHorizontal:
					if st.Seconds < hsecs {
						hsecs = st.Seconds
					}
				case obs.StageTaxonomyVertical:
					if st.Seconds < vsecs {
						vsecs = st.Seconds
					}
				}
			}
		}
		var buf bytes.Buffer
		if err := tax.Graph.Freeze().Save(&buf); err != nil {
			panic(err)
		}
		taxSnapshots = append(taxSnapshots, buf.Bytes())
		res.Timings = append(res.Timings,
			ParallelTiming{Stage: "horizontal", Workers: w, Seconds: hsecs},
			ParallelTiming{Stage: "vertical", Workers: w, Seconds: vsecs})
	}

	// Stage 4: plausibility annotation over the built taxonomy.
	oracle := func(x, y string) (bool, bool) {
		if !s.World.KnownTerm(x) || !s.World.KnownTerm(y) {
			return false, false
		}
		return s.World.IsTrueIsA(x, y), true
	}
	model := prob.Train(s.PB.Store, oracle)
	base := taxonomy.Build(groups, taxonomy.Config{Workers: 1}).Graph.Freeze()
	var annSnapshots [][]byte
	for _, w := range parallelWorkerCounts {
		var g *graph.Builder
		secs := minSeconds(reps, func() {
			g = graph.NewBuilderFrom(base)
			core.AnnotatePlausibility(g, model, w, nil)
		})
		var buf bytes.Buffer
		if err := g.Freeze().Save(&buf); err != nil {
			panic(err)
		}
		annSnapshots = append(annSnapshots, buf.Bytes())
		res.Timings = append(res.Timings, ParallelTiming{Stage: "annotate", Workers: w, Seconds: secs})
	}

	// Determinism: every worker count must reproduce the workers=1 output.
	for _, fp := range alg3Fp {
		if fp != alg3Fp[0] {
			res.Deterministic = false
		}
	}
	for _, snap := range taxSnapshots {
		if !bytes.Equal(snap, taxSnapshots[0]) {
			res.Deterministic = false
		}
	}
	for _, snap := range annSnapshots {
		if !bytes.Equal(snap, annSnapshots[0]) {
			res.Deterministic = false
		}
	}

	// Speedup vs the stage's own workers=1 measurement.
	serial := make(map[string]float64)
	for _, t := range res.Timings {
		if t.Workers == 1 {
			serial[t.Stage] = t.Seconds
		}
	}
	for i := range res.Timings {
		if s1 := serial[res.Timings[i].Stage]; s1 > 0 && res.Timings[i].Seconds > 0 {
			res.Timings[i].Speedup = s1 / res.Timings[i].Seconds
		}
	}

	rows := make([][]string, 0, len(res.Timings))
	for _, t := range res.Timings {
		rows = append(rows, []string{
			t.Stage, itoa(t.Workers),
			fmt.Sprintf("%.1f", t.Seconds*1000),
			fmt.Sprintf("%.2fx", t.Speedup),
		})
	}
	title := fmt.Sprintf("Parallel stage scaling (deterministic=%v)", res.Deterministic)
	return res, table(title, []string{"stage", "workers", "ms", "speedup"}, rows)
}

package taxonomy

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/extraction"
)

func benchGroups(n int) []extraction.Group {
	w := corpus.DefaultWorld(1)
	c := corpus.NewGenerator(w, corpus.GenConfig{Sentences: n, Seed: 11}).Generate()
	inputs := make([]extraction.Input, len(c.Sentences))
	for i, s := range c.Sentences {
		inputs[i] = extraction.Input{Text: s.Text, PageScore: s.PageScore}
	}
	return extraction.Run(inputs, extraction.DefaultConfig()).Groups
}

// BenchmarkBuild measures staged taxonomy construction (Algorithm 2 with
// fragment adoption) over real extraction groups.
func BenchmarkBuild(b *testing.B) {
	groups := benchGroups(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Build(groups, Config{})
		if res.Graph.Freeze().NumNodes() == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkBuildJaccard measures the ablation similarity.
func BenchmarkBuildJaccard(b *testing.B) {
	groups := benchGroups(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Build(groups, Config{Sim: Jaccard{Tau: 0.5}})
		if res.Graph.Freeze().NumNodes() == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkVertical measures the vertical merge stage alone, at several
// worker counts, on a horizontally merged engine. Vertical only adds
// links, so resetting the link set between iterations restores the
// pre-stage state exactly.
func BenchmarkVertical(b *testing.B) {
	groups := benchGroups(10000)
	locals := make([]*Local, 0, len(groups))
	for _, g := range groups {
		if g.Super == "" || len(g.Subs) == 0 {
			continue
		}
		locals = append(locals, NewLocal(g.Super, g.Subs))
	}
	e := newEngine(locals, AbsoluteOverlap{Delta: 2})
	e.runHorizontalParallel(1)
	e.adoptFragments()
	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.links = make(map[[2]int]bool)
				e.runVerticalParallel(w)
				if len(e.links) == 0 {
					b.Fatal("no vertical links")
				}
			}
		})
	}
}

// BenchmarkAdoptFragments measures fragment adoption on one label of 2000
// fragments, each naming two children drawn from 3000, so that most
// chain-merge through shared children into one large cluster and the
// rest stay apart. Each iteration adopts over a fresh engine.
func BenchmarkAdoptFragments(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	locals := make([]*Local, 2000)
	for i := range locals {
		var subs []string
		for k := 0; k < 2; k++ {
			c := fmt.Sprintf("c%d", rng.Intn(3000))
			for n := 1 + rng.Intn(3); n > 0; n-- {
				subs = append(subs, c)
			}
		}
		locals[i] = NewLocal("x", subs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := newEngine(locals, AbsoluteOverlap{Delta: 2})
		b.StartTimer()
		if e.adoptFragments() == 0 {
			b.Fatal("no adoptions")
		}
	}
}

// BenchmarkMergeOrderStagedVsRandom measures the Theorem 2 effect on a
// subsample.
func BenchmarkMergeOrderStagedVsRandom(b *testing.B) {
	groups := benchGroups(2000)
	if len(groups) > 120 {
		groups = groups[:120]
	}
	locals := make([]*Local, 0, len(groups))
	for _, g := range groups {
		locals = append(locals, NewLocal(g.Super, g.Subs))
	}
	b.Run("staged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := newEngine(locals, AbsoluteOverlap{Delta: 2})
			e.runStaged()
		}
	})
	b.Run("random", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			staged, random, _ := OrderExperiment(locals, AbsoluteOverlap{Delta: 2}, int64(i))
			if staged > random {
				b.Fatal("Theorem 2 violated")
			}
		}
	})
}

package extraction

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/hearst"
)

func benchInputs(n int) []Input {
	w := corpus.DefaultWorld(1)
	c := corpus.NewGenerator(w, corpus.GenConfig{Sentences: n, Seed: 11}).Generate()
	inputs := make([]Input, len(c.Sentences))
	for i, s := range c.Sentences {
		inputs[i] = Input{Text: s.Text, PageScore: s.PageScore}
	}
	return inputs
}

// BenchmarkRun measures the full iterative extraction (all rounds to
// fixpoint) over a 10k-sentence corpus.
func BenchmarkRun(b *testing.B) {
	inputs := benchInputs(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(inputs, DefaultConfig())
		if res.Store.NumPairs() == 0 {
			b.Fatal("no pairs")
		}
	}
}

// BenchmarkResolveRound measures one map phase of Algorithm 1 on one
// worker: every parsed sentence of a 10k corpus, none yet decided,
// resolved against the Γ a full run learned. resolve only reads the
// states, so every iteration repeats the same round.
func BenchmarkResolveRound(b *testing.B) {
	inputs := benchInputs(10000)
	cfg := DefaultConfig()
	cfg.Workers = 1
	store := Run(inputs, cfg).Store
	var states []*sentenceState
	var pending []int
	for i, in := range inputs {
		if m, ok := hearst.Parse(in.Text); ok {
			pending = append(pending, len(states))
			states = append(states, newSentenceState(i, in.Text, m, in.PageScore))
		}
	}
	cfg = cfg.withDefaults()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := mapPhase(states, pending, cfg, store); len(d) != len(pending) {
			b.Fatalf("%d decisions for %d sentences", len(d), len(pending))
		}
	}
}

// BenchmarkRunSerial isolates the worker-pool benefit.
func BenchmarkRunSerial(b *testing.B) {
	inputs := benchInputs(10000)
	cfg := DefaultConfig()
	cfg.Workers = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(inputs, cfg)
		if res.Store.NumPairs() == 0 {
			b.Fatal("no pairs")
		}
	}
}

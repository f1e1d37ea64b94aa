package prob

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/kb"
)

func nbBytes(t *testing.T, nb *NaiveBayes) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := nb.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestUntrainReversesTrain: training a batch and untraining part of it
// must leave the model a from-scratch training of the remainder would
// produce, bit for bit — including the smoothing denominators, which
// depend on the live distinct-value inventory.
func TestUntrainReversesTrain(t *testing.T) {
	keep := [][]Feature{
		{{Name: "pattern", Value: 1}, {Name: "pos", Value: 1}},
		{{Name: "pattern", Value: 2}, {Name: "pos", Value: 3}},
	}
	drop := [][]Feature{
		{{Name: "pattern", Value: 7}, {Name: "pos", Value: 2}},
		{{Name: "pagerank", Value: 5}},
	}
	full := NewNaiveBayes()
	for _, f := range keep {
		full.Train(f, true)
	}
	for i, f := range drop {
		full.Train(f, i%2 == 0)
	}
	for i, f := range drop {
		full.Untrain(f, i%2 == 0)
	}
	want := NewNaiveBayes()
	for _, f := range keep {
		want.Train(f, true)
	}
	if !bytes.Equal(nbBytes(t, full), nbBytes(t, want)) {
		t.Fatal("untrain left residue: models differ")
	}
	// The dropped feature value 7 must no longer shrink the smoothing
	// denominator of "pattern".
	if got, wantP := full.Prob(keep[0]), want.Prob(keep[0]); got != wantP {
		t.Fatalf("Prob after untrain = %v, want %v", got, wantP)
	}
}

func TestUntrainUnseenPanics(t *testing.T) {
	nb := NewNaiveBayes()
	nb.Train([]Feature{{Name: "pattern", Value: 1}}, true)
	defer func() {
		if recover() == nil {
			t.Fatal("Untrain of unseen example did not panic")
		}
	}()
	nb.Untrain([]Feature{{Name: "pattern", Value: 9}}, true)
}

func TestNaiveBayesEncodeRoundTrip(t *testing.T) {
	nb := NewNaiveBayes()
	nb.Train([]Feature{{Name: "pattern", Value: 1}, {Name: "listlen", Value: 3}}, true)
	nb.Train([]Feature{{Name: "pattern", Value: 4}}, false)
	data := nbBytes(t, nb)
	got, err := DecodeNaiveBayes(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, nb) {
		t.Fatal("round trip mismatch")
	}
	if !bytes.Equal(nbBytes(t, got), data) {
		t.Fatal("re-encode differs")
	}
	if _, err := DecodeNaiveBayes(bytes.NewReader(data[:len(data)-1])); err == nil {
		t.Fatal("truncated model decoded without error")
	}
}

func TestNaiveBayesClone(t *testing.T) {
	nb := NewNaiveBayes()
	nb.Train([]Feature{{Name: "pattern", Value: 1}}, true)
	c := nb.Clone()
	c.Train([]Feature{{Name: "pattern", Value: 2}}, false)
	if len(nb.counts["pattern"]) != 1 {
		t.Fatal("clone shares count tables with original")
	}
}

// TestTrainDeltaMatchesFullTrain: advancing a base model over an evolved
// Γ must equal training from scratch on the evolved Γ — with changed
// evidence lists, brand-new pairs, and a super whose frequency crosses a
// log-bucket edge (dirtying even its untouched pairs).
func TestTrainDeltaMatchesFullTrain(t *testing.T) {
	base := trainingStore()
	next := base.Clone()
	// New pair under an existing super.
	for i := 0; i < 4; i++ {
		next.Add("animal", "dog", 1)
		next.AddEvidence("animal", "dog", kb.Evidence{Pattern: 1, PageScore: 0.6, ListLen: 2, Pos: 2, Seq: int64(1000 + i)})
	}
	// Extra evidence on an existing pair; pushes animal's super total
	// (30 -> 42) across the 32 log-bucket edge, so ("animal","cat")'s
	// features drift even where its own evidence list kept its prefix.
	for i := 0; i < 8; i++ {
		next.Add("animal", "cat", 1)
		next.AddEvidence("animal", "cat", kb.Evidence{Pattern: 2, PageScore: 0.4, ListLen: 4, Pos: 3, Seq: int64(2000 + i)})
	}
	// A brand-new super-concept.
	for i := 0; i < 3; i++ {
		next.Add("fruit", "apple", 1)
		next.AddEvidence("fruit", "apple", kb.Evidence{Pattern: 1, PageScore: 0.9, ListLen: 2, Pos: 1, Seq: int64(3000 + i)})
	}
	oracle := func(x, y string) (bool, bool) {
		if x == "fruit" || y == "dog" {
			return x == "fruit" || x == "animal", true
		}
		return trainingOracle(x, y)
	}

	prev := Train(base, oracle)
	deltaModel, stats := TrainDelta(prev.NB(), base, next, oracle)
	fullModel := Train(next, oracle)
	if !bytes.Equal(nbBytes(t, deltaModel.NB()), nbBytes(t, fullModel.NB())) {
		t.Fatal("delta-trained model differs from full retrain")
	}
	if stats.DirtyPairs == 0 || stats.Retrained == 0 {
		t.Fatalf("implausible delta stats: %+v", stats)
	}
	// Plausibility must agree everywhere, including untouched pairs.
	for _, p := range [][2]string{{"animal", "cat"}, {"animal", "dog"}, {"company", "IBM"}, {"fruit", "apple"}} {
		if got, want := deltaModel.Plausibility(p[0], p[1]), fullModel.Plausibility(p[0], p[1]); got != want {
			t.Errorf("Plausibility(%s,%s) = %v, want %v", p[0], p[1], got, want)
		}
	}
}

func deltaGraphs() (*graph.Frozen, *graph.Frozen) {
	build := func(withDelta bool) *graph.Frozen {
		g := graph.NewBuilder()
		id := func(l string) graph.NodeID { return g.Intern(l) }
		g.AddEdge(id("thing"), id("company"), 30, 0.9)
		g.AddEdge(id("thing"), id("animal"), 25, 0.9)
		g.AddEdge(id("company"), id("it company"), 20, 0.95)
		g.AddEdge(id("company"), id("IBM"), 50, 0.99)
		g.AddEdge(id("it company"), id("Microsoft"), 30, 0.99)
		g.AddEdge(id("animal"), id("cat"), 40, 0.98)
		g.AddEdge(id("animal"), id("dog"), 35, 0.97)
		if withDelta {
			// New edge under "company" and a brand-new concept branch.
			g.AddEdge(id("it company"), id("Google"), 10, 0.9)
			g.AddEdge(id("thing"), id("plant"), 5, 0.8)
			g.AddEdge(id("plant"), id("tree"), 12, 0.95)
			// Changed plausibility on an existing edge.
			g.AddEdge(id("animal"), id("cat"), 0, 0.99)
		}
		return g.Freeze()
	}
	return build(false), build(true)
}

// TestIncrementalAlgorithm3MatchesFull: the incremental DP seeded with
// the changed-in-edge nodes must reproduce the full DP's reach table
// exactly, while recomputing only the dirty closure.
func TestIncrementalAlgorithm3MatchesFull(t *testing.T) {
	g1, g2 := deltaGraphs()
	prev, err := New(g1, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	seeds := DirtySeeds(g1, g2)
	if len(seeds) == 0 {
		t.Fatal("no dirty seeds found between differing graphs")
	}
	// "IBM" has unchanged in-edges and must not be a seed.
	for _, s := range seeds {
		if g2.Label(s) == "IBM" {
			t.Fatal("clean node reported dirty")
		}
	}
	full, err := New(g2, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := New(g2, Options{Workers: 1, Prev: prev, Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inc.reach, full.reach) {
		t.Fatalf("incremental reach table differs: %d vs %d entries", len(inc.reach), len(full.reach))
	}
	// Query-level agreement.
	for _, label := range []string{"thing", "company", "it company", "animal", "plant"} {
		x := g2.Lookup(label)
		if !reflect.DeepEqual(inc.InstancesOf(x), full.InstancesOf(x)) {
			t.Errorf("InstancesOf(%s) diverges", label)
		}
	}
}

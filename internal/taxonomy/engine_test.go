package taxonomy

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func example3Locals() []*Local {
	var out []*Local
	for _, g := range example3() {
		out = append(out, NewLocal(g.Super, g.Subs))
	}
	return out
}

// Theorem 1: any order of merge operations yields the same final graph.
func TestTheorem1ConfluenceExample3(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		staged, random, same := OrderExperiment(example3Locals(), AbsoluteOverlap{Delta: 2}, seed)
		if !same {
			t.Fatalf("seed %d: final graphs differ", seed)
		}
		if staged > random {
			t.Errorf("seed %d: staged ops %d > random ops %d (violates Theorem 2)", seed, staged, random)
		}
	}
}

// randomLocals builds a random local-taxonomy population over a small
// vocabulary so that overlaps actually occur.
func randomLocals(rng *rand.Rand) []*Local {
	rootVocab := []string{"a", "b", "c", "d"}
	childVocab := []string{"p", "q", "r", "s", "t", "u", "a", "b", "c"}
	n := 4 + rng.Intn(10)
	out := make([]*Local, 0, n)
	for i := 0; i < n; i++ {
		root := rootVocab[rng.Intn(len(rootVocab))]
		k := 2 + rng.Intn(4)
		subs := make([]string, 0, k)
		for j := 0; j < k; j++ {
			c := childVocab[rng.Intn(len(childVocab))]
			if c == root {
				continue
			}
			subs = append(subs, c)
		}
		if len(subs) == 0 {
			subs = append(subs, "p")
		}
		out = append(out, NewLocal(root, subs))
	}
	return out
}

// Theorem 1 as a property over random populations.
func TestTheorem1ConfluenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		locals := randomLocals(rng)
		_, _, same := OrderExperiment(locals, AbsoluteOverlap{Delta: 2}, seed+1)
		return same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Theorem 2: the staged schedule never uses more operations than a random
// one.
func TestTheorem2MinimalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		locals := randomLocals(rng)
		staged, random, _ := OrderExperiment(locals, AbsoluteOverlap{Delta: 2}, seed+1)
		return staged <= random
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Example 4 of the paper: vertical-first costs extra horizontal merges.
func TestExample4VerticalFirstCostsMore(t *testing.T) {
	locals := []*Local{
		NewLocal("A", []string{"B", "C", "D"}),
		NewLocal("A", []string{"B", "C", "D", "E"}),
		NewLocal("B", []string{"C", "D"}),
		NewLocal("B", []string{"C", "E"}),
	}
	foundCostlier := false
	for seed := int64(0); seed < 50; seed++ {
		staged, random, same := OrderExperiment(locals, AbsoluteOverlap{Delta: 2}, seed)
		if !same {
			t.Fatalf("seed %d: not confluent", seed)
		}
		if random > staged {
			foundCostlier = true
		}
		if random < staged {
			t.Fatalf("seed %d: random beat staged (%d < %d)", seed, random, staged)
		}
	}
	if !foundCostlier {
		t.Log("no random order was costlier; example may be too small to exhibit Theorem 2 strictly")
	}
}

// The Section 3.5 argument: Jaccard violates Property 4, so A similar to
// B does not imply A similar to a superset of B.
func TestJaccardViolatesProperty4(t *testing.T) {
	mk := func(items ...string) map[string]int64 {
		m := make(map[string]int64)
		for _, i := range items {
			m[i]++
		}
		return m
	}
	a := mk("Microsoft", "IBM", "HP")
	b := mk("Microsoft", "IBM", "Intel")
	c := mk("Microsoft", "IBM", "HP", "EMC", "Intel", "Google", "Apple")
	j := Jaccard{Tau: 0.5}
	if !j.Similar(a, b) {
		t.Error("J(A,B) = 0.5 should pass at tau 0.5")
	}
	if j.Similar(a, c) {
		t.Error("J(A,C) = 0.43 should fail at tau 0.5 (the absurdity: A ⊂ C)")
	}
	abs := AbsoluteOverlap{Delta: 2}
	if !abs.Similar(a, b) || !abs.Similar(a, c) {
		t.Error("absolute overlap must accept both (Property 4)")
	}
}

func TestSimilarityNames(t *testing.T) {
	if (AbsoluteOverlap{}).Name() != "absolute-overlap" || (Jaccard{}).Name() != "jaccard" {
		t.Error("similarity names changed")
	}
}

func TestEngineFingerprintStable(t *testing.T) {
	a := newEngine(example3Locals(), AbsoluteOverlap{Delta: 2})
	a.runStaged()
	b := newEngine(example3Locals(), AbsoluteOverlap{Delta: 2})
	b.runStaged()
	if a.fingerprint() != b.fingerprint() {
		t.Error("staged runs disagree")
	}
	if a.fingerprint() == "" {
		t.Error("empty fingerprint")
	}
}

func TestHorizontalMergeRetargetsLinks(t *testing.T) {
	// d links to one plant cluster; merging plant clusters must keep the
	// link pointing at the merged representative.
	locals := []*Local{
		NewLocal("plant", []string{"tree", "grass"}),
		NewLocal("plant", []string{"tree", "grass", "herb"}),
		NewLocal("organism", []string{"plant", "tree", "grass"}),
	}
	e := newEngine(locals, AbsoluteOverlap{Delta: 2})
	// Vertical first, against cluster 0.
	if !e.canVertical(2, 0) {
		t.Fatal("expected vertical candidate")
	}
	e.mergeVertical(2, 0)
	if !e.canHorizontal(0, 1) {
		t.Fatal("expected horizontal candidate")
	}
	e.mergeHorizontal(0, 1)
	fp := e.fingerprint()
	want := fmt.Sprintf("organism::grass=1;plant=1;tree=1; -> plant::grass=2;herb=1;tree=2;")
	if !containsLine(fp, want) {
		t.Errorf("fingerprint missing retargeted link:\n%s", fp)
	}
}

// adoptFragmentsReference is the original fragment adoption, kept verbatim
// as the oracle for adoptFragments: it re-ranks the label and rescans from
// the top after every adoption.
func (e *engine) adoptFragmentsReference() int {
	byRoot := make(map[string][]int)
	for _, i := range e.alive() {
		byRoot[e.nodes[i].Root] = append(byRoot[e.nodes[i].Root], i)
	}
	roots := make([]string, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	adoptions := 0
	mass := func(i int) int64 {
		var m int64
		for _, v := range e.nodes[i].Children {
			m += v
		}
		return m
	}
	for _, r := range roots {
		ids := byRoot[r]
		for {
			var live []int
			for _, i := range ids {
				if e.find(i) == i && e.nodes[i] != nil {
					live = append(live, i)
				}
			}
			if len(live) < 2 {
				break
			}
			sort.Slice(live, func(a, b int) bool {
				ma, mb := mass(live[a]), mass(live[b])
				if ma != mb {
					return ma > mb
				}
				return live[a] < live[b]
			})
			changed := false
		scan:
			for i := 1; i < len(live); i++ {
				for j := 0; j < i; j++ {
					if overlap(e.nodes[live[j]].Children, e.nodes[live[i]].Children) >= 1 {
						e.mergeHorizontal(live[j], live[i])
						adoptions++
						changed = true
						break scan
					}
				}
			}
			if !changed {
				break
			}
		}
	}
	return adoptions
}

// adoptionLocals draws one label set for the adoption oracle: several
// roots over a small child vocabulary, so fragments overlap and chain,
// with repeated children so masses differ and tie.
func adoptionLocals(rng *rand.Rand) []*Local {
	roots := []string{"a", "b", "c"}[:1+rng.Intn(3)]
	vocab := 4 + rng.Intn(12)
	n := 2 + rng.Intn(40)
	out := make([]*Local, n)
	for i := range out {
		subs := make([]string, 1+rng.Intn(4))
		for j := range subs {
			subs[j] = fmt.Sprintf("c%d", rng.Intn(vocab))
		}
		out[i] = NewLocal(roots[rng.Intn(len(roots))], subs)
	}
	return out
}

// checkAdoptionMatchesReference runs adoptFragments and the reference on
// two engines over the same locals and compares adoption counts, the
// union-find representative of every node and the surviving child
// multisets.
func checkAdoptionMatchesReference(t *testing.T, name string, locals []*Local, horizontalFirst bool) {
	t.Helper()
	got := newEngine(locals, AbsoluteOverlap{Delta: 2})
	want := newEngine(locals, AbsoluteOverlap{Delta: 2})
	if horizontalFirst {
		got.runHorizontal()
		want.runHorizontal()
	}
	if g, w := got.adoptFragments(), want.adoptFragmentsReference(); g != w {
		t.Fatalf("%s: %d adoptions, reference %d", name, g, w)
	}
	for i := range locals {
		if g, w := got.find(i), want.find(i); g != w {
			t.Fatalf("%s: node %d represented by %d, reference %d", name, i, g, w)
		}
		if g, w := got.nodes[i], want.nodes[i]; (g == nil) != (w == nil) || g != nil && !reflect.DeepEqual(g.Children, w.Children) {
			t.Fatalf("%s: node %d children %v, reference %v", name, i, g, w)
		}
	}
	if got.hops != want.hops {
		t.Fatalf("%s: %d hops, reference %d", name, got.hops, want.hops)
	}
}

// TestAdoptFragmentsMatchesReference: the rank-once, resume-in-place scan
// performs exactly the reference's merge sequence.
func TestAdoptFragmentsMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 2500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		locals := adoptionLocals(rng)
		checkAdoptionMatchesReference(t, fmt.Sprintf("seed %d", seed), locals, seed%2 == 1)
	}
}

// TestAdoptFragmentsRankTiebreak: a cluster that grows to the mass of a
// run of equal-mass clusters lands inside the run by id. Cluster 3
// adopts 6 and reaches mass 6, so it ranks after 2 but ahead of 4.
// Fragment 7 then overlaps cluster 3 and one member of the run, and
// goes to whichever ranks first; the loser chain-merges into the winner
// through the fragment's children, so the final representative shows
// which one ranked first.
func TestAdoptFragmentsRankTiebreak(t *testing.T) {
	rep := func(child string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = child
		}
		return out
	}
	join := func(parts ...[]string) []string {
		var out []string
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	for _, tc := range []struct {
		fragment []string
		winner   int
	}{
		{[]string{"d0", "z0"}, 3}, // 3 moved past 4
		{[]string{"c0", "z0"}, 2}, // 3 stopped behind 2
	} {
		locals := []*Local{
			NewLocal("x", rep("a0", 10)),                                  // 0: mass 10
			NewLocal("x", join(rep("b0", 2), rep("b1", 2), rep("b2", 2))), // 1: mass 6
			NewLocal("x", join(rep("c0", 2), rep("c1", 2), rep("c2", 2))), // 2: mass 6
			NewLocal("x", join(rep("g0", 2), []string{"z0"})),             // 3: mass 3
			NewLocal("x", join(rep("d0", 2), rep("d1", 2), rep("d2", 2))), // 4: mass 6
			NewLocal("x", []string{"e0"}),                                 // 5: disjoint
			NewLocal("x", rep("g0", 3)),                                   // 6: joins 3
			NewLocal("x", tc.fragment),                                    // 7
		}
		name := fmt.Sprintf("fragment %v", tc.fragment)
		checkAdoptionMatchesReference(t, name, locals, false)
		e := newEngine(locals, AbsoluteOverlap{Delta: 2})
		if n := e.adoptFragments(); n != 3 {
			t.Fatalf("%s: %d adoptions, want 3", name, n)
		}
		loser := 4
		if tc.winner == 2 {
			loser = 3
		}
		for _, node := range []int{3, 6, 7, loser} {
			if got := e.find(node); got != tc.winner {
				t.Errorf("%s: node %d represented by %d, want %d", name, node, got, tc.winner)
			}
		}
	}
}

func containsLine(haystack, line string) bool {
	start := 0
	for start <= len(haystack) {
		end := start
		for end < len(haystack) && haystack[end] != '\n' {
			end++
		}
		if haystack[start:end] == line {
			return true
		}
		start = end + 1
	}
	return false
}

package taxonomy

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/extraction"
)

// TestMergeMatchesMonolithicEngine checks the per-label replay against
// the original whole-corpus engine: running every local through one
// global engine (horizontal fixpoint, adoption, vertical links) must
// produce the same cluster multiset and link set as Merge + the
// Assemble-side link rule. This is the equivalence the staged refactor
// rests on.
func TestMergeMatchesMonolithicEngine(t *testing.T) {
	groups := benchGroups(4000)
	sim := AbsoluteOverlap{Delta: 2}

	var locals []*Local
	for _, g := range groups {
		if g.Super == "" || len(g.Subs) == 0 {
			continue
		}
		locals = append(locals, NewLocal(g.Super, g.Subs))
	}
	eng := newEngine(locals, sim)
	eng.runHorizontalParallel(1)
	eng.adoptFragments()
	eng.runVerticalParallel(1)

	state := Merge(groups, Config{})
	if got, want := stateFingerprint(state, sim), eng.fingerprint(); got != want {
		t.Fatalf("per-label merge state diverges from monolithic engine (%d vs %d bytes)",
			len(got), len(want))
	}
}

// TestMergeDeltaMatchesFullMerge: rebuilding only dirty labels over the
// full group list must reproduce the from-scratch merge state exactly.
func TestMergeDeltaMatchesFullMerge(t *testing.T) {
	groups := benchGroups(3000)
	split := len(groups) * 9 / 10
	base, delta := groups[:split], groups[split:]

	dirtySet := make(map[string]bool)
	for _, g := range delta {
		dirtySet[g.Super] = true
	}
	var dirty []string
	for r := range dirtySet {
		dirty = append(dirty, r)
	}

	prev := Merge(base, Config{})
	got := MergeDelta(prev, groups, dirty, Config{})
	want := Merge(groups, Config{})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delta merge state differs: %d vs %d labels", len(got.Labels), len(want.Labels))
	}
	if res := Assemble(got, Config{}); res.Graph.Freeze().NumNodes() == 0 {
		t.Fatal("assembled delta state produced empty graph")
	}
}

// TestMergeDeltaRebuildsOnLocalCountMismatch: a label wrongly reported
// clean whose group list grew anyway must be rebuilt, not trusted.
func TestMergeDeltaRebuildsOnLocalCountMismatch(t *testing.T) {
	base := []extraction.Group{
		{Super: "animal", Subs: []string{"cat", "dog"}, Order: 1},
		{Super: "animal", Subs: []string{"cat", "dog", "fox"}, Order: 2},
	}
	all := append(append([]extraction.Group(nil), base...),
		extraction.Group{Super: "animal", Subs: []string{"cat", "dog", "owl"}, Order: 3})
	prev := Merge(base, Config{})
	got := MergeDelta(prev, all, nil, Config{}) // lie: no dirty roots
	want := Merge(all, Config{})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("defensive rebuild did not trigger on local-count mismatch")
	}
}

// TestMergeDeltaDropsVanishedLabels: labels present in prev but absent
// from the group list (a provisional group dissolved on replay) must not
// leak into the delta state.
func TestMergeDeltaDropsVanishedLabels(t *testing.T) {
	prev := Merge([]extraction.Group{
		{Super: "ghost", Subs: []string{"a", "b"}, Order: 1},
		{Super: "animal", Subs: []string{"cat", "dog"}, Order: 2},
	}, Config{})
	all := []extraction.Group{{Super: "animal", Subs: []string{"cat", "dog"}, Order: 2}}
	got := MergeDelta(prev, all, []string{"ghost"}, Config{})
	for _, ls := range got.Labels {
		if ls.Label == "ghost" {
			t.Fatal("vanished label survived the delta merge")
		}
	}
}

// TestBuildEqualsMergeAssemble: the staged entry points compose to the
// same result as Build, including stats and sense naming.
func TestBuildEqualsMergeAssemble(t *testing.T) {
	groups := benchGroups(2000)
	cfg := Config{MinSenseEvidence: 2}
	whole := Build(groups, cfg)
	staged := Assemble(Merge(groups, cfg), cfg)
	if whole.Stats != staged.Stats {
		t.Fatalf("stats diverge:\n whole  %+v\n staged %+v", whole.Stats, staged.Stats)
	}
	if !reflect.DeepEqual(whole.Senses, staged.Senses) {
		t.Fatal("sense maps diverge")
	}
	var a, b bytes.Buffer
	if err := whole.Graph.Freeze().Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := staged.Graph.Freeze().Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("frozen graphs diverge")
	}
}

func TestStateRoundTrip(t *testing.T) {
	state := Merge(benchGroups(1500), Config{})
	var buf bytes.Buffer
	if err := EncodeState(&buf, state); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	got, err := DecodeState(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, state) {
		t.Fatal("state round trip mismatch")
	}
	if _, err := DecodeState(bytes.NewReader(data[:len(data)-2])); err == nil {
		t.Fatal("truncated state decoded without error")
	}
}

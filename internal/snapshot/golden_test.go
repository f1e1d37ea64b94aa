package snapshot

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/extraction"
)

// regen rewrites the checked-in fixtures from the current builder:
//
//	go test ./internal/snapshot -run TestGolden -regen
//
// The fixtures pin the on-disk format, so regenerate them only when the
// *builder* output intentionally changes — never to paper over a loader
// regression.
var regen = flag.Bool("regen", false, "rewrite golden snapshot fixtures")

const (
	goldenGraph = "testdata/graph.snap"
	goldenFull  = "testdata/full.snap"
)

// goldenProbase builds the richer taxonomy the fixtures snapshot: a
// synthetic corpus large enough that the graph has real fan-out,
// multi-parent instances and sense splits, unlike the handcrafted
// sentences in buildProbase.
func goldenProbase(t *testing.T) *core.Probase {
	t.Helper()
	w := corpus.DefaultWorld(1)
	c := corpus.NewGenerator(w, corpus.GenConfig{Sentences: 4000, Seed: 11}).Generate()
	inputs := make([]extraction.Input, len(c.Sentences))
	for i, s := range c.Sentences {
		inputs[i] = extraction.Input{Text: s.Text, PageScore: s.PageScore}
	}
	pb, err := core.Build(inputs, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return pb
}

func goldenPath(t *testing.T, name string) string {
	t.Helper()
	if *regen {
		pb := goldenProbase(t)
		var buf bytes.Buffer
		var err error
		if name == goldenFull {
			err = pb.SaveFull(&buf)
		} else {
			err = pb.Save(&buf)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(name, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", name, buf.Len())
	}
	return name
}

// queryFingerprint renders the full answer surface of a loaded taxonomy
// into one comparable string: ranked instances and concepts, pairwise
// plausibility and joint conceptualisation. Two snapshots answering
// queries identically produce identical fingerprints.
func queryFingerprint(pb *core.Probase) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "nodes=%d edges=%d\n", pb.Graph.NumNodes(), pb.Graph.NumEdges())
	for _, concept := range []string{"animals", "companies", "countries"} {
		fmt.Fprintf(&sb, "instances(%s)=%v\n", concept, pb.InstancesOf(concept, 10))
	}
	for _, term := range []string{"IBM", "cats", "Google"} {
		fmt.Fprintf(&sb, "concepts(%s)=%v\n", term, pb.ConceptsOf(term, 10))
	}
	for _, pair := range [][2]string{{"animals", "cats"}, {"companies", "IBM"}, {"countries", "IBM"}} {
		fmt.Fprintf(&sb, "plaus(%s,%s)=%.12f\n", pair[0], pair[1], pb.Plausibility(pair[0], pair[1]))
	}
	if ranked, ok := pb.Conceptualize([]string{"China", "India"}, 5); ok {
		fmt.Fprintf(&sb, "conceptualize(China,India)=%v\n", ranked)
	}
	return sb.String()
}

// TestGoldenFixtures loads the checked-in snapshots and pins their
// content: bytes written by an earlier build must keep loading, with
// the full flavour's Γ store and build state intact.
func TestGoldenFixtures(t *testing.T) {
	for _, tc := range []struct {
		name string
		path string
		full bool
	}{
		{"graph-only", goldenGraph, false},
		{"full", goldenFull, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pb, err := Open(goldenPath(t, tc.path))
			if err != nil {
				t.Fatal(err)
			}
			if (pb.Store != nil) != tc.full || (pb.State != nil) != tc.full {
				t.Errorf("Store/State presence = %v/%v, want %v",
					pb.Store != nil, pb.State != nil, tc.full)
			}
			if rs := pb.InstancesOf("animals", 5); len(rs) == 0 {
				t.Error("fixture answers no instance queries")
			}
			if rs := pb.ConceptsOf("IBM", 5); len(rs) == 0 {
				t.Error("fixture answers no concept queries")
			}
		})
	}
}

// TestGoldenGraphMappedMatchesOpen: the graph fixture answers every
// query identically through the copying and the memory-mapped loader,
// and re-saves to exactly its own bytes.
func TestGoldenGraphMappedMatchesOpen(t *testing.T) {
	path := goldenPath(t, goldenGraph)
	copied, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if want, got := queryFingerprint(copied), queryFingerprint(mapped); want != got {
		t.Errorf("Open and OpenMapped answer differently:\nOpen:       %s\nOpenMapped: %s", want, got)
	}
	assertResaves(t, path, mapped.Save)
}

// TestGoldenFullRoundTrip: the full fixture re-saves to exactly its own
// bytes — graph section, Γ and build state alike.
func TestGoldenFullRoundTrip(t *testing.T) {
	path := goldenPath(t, goldenFull)
	pb, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	assertResaves(t, path, pb.SaveFull)
}

// assertResaves fails unless save writes exactly the bytes of the
// fixture at path.
func assertResaves(t *testing.T, path string, save func(io.Writer) error) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("re-saving %s wrote %d bytes that differ from the fixture's %d", path, buf.Len(), len(want))
	}
}

// TestBuildMatchesGolden: building goldenProbase today writes exactly
// the checked-in fixtures, graph-only and full. It pins the builder, not
// the loader: a refactor of the build or save path that moves a single
// byte fails here.
func TestBuildMatchesGolden(t *testing.T) {
	pb := goldenProbase(t)
	for _, tc := range []struct {
		path string
		save func(io.Writer) error
	}{
		{goldenGraph, pb.Save},
		{goldenFull, pb.SaveFull},
	} {
		assertResaves(t, goldenPath(t, tc.path), tc.save)
	}
}

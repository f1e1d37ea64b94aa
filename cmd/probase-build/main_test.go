package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/snapshot"
	"repro/internal/taxstats"
)

func writeCorpus(t *testing.T, n int) string {
	t.Helper()
	w := corpus.DefaultWorld(1)
	c := corpus.NewGenerator(w, corpus.GenConfig{Sentences: n, Seed: 11}).Generate()
	path := filepath.Join(t.TempDir(), "c.tsv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return path
}

func TestBuildGraphSnapshot(t *testing.T) {
	corpusPath := writeCorpus(t, 4000)
	out := filepath.Join(t.TempDir(), "p.bin")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-corpus", corpusPath, "-o", out}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pb, err := core.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Graph.NumNodes() == 0 {
		t.Error("snapshot has no nodes")
	}
	if !strings.Contains(stderr.String(), "pairs") {
		t.Errorf("stderr = %q", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not clean for piping: %q", stdout.String())
	}
}

func TestBuildFullSnapshot(t *testing.T) {
	corpusPath := writeCorpus(t, 4000)
	out := filepath.Join(t.TempDir(), "p.bin")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-corpus", corpusPath, "-o", out, "-full"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pb, err := core.LoadFull(f)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Store == nil || pb.Store.NumPairs() == 0 {
		t.Error("full snapshot lost Γ")
	}
}

func TestBuildMissingCorpus(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-corpus", "/no/such/file.tsv"}, &stdout, &stderr); err == nil {
		t.Error("missing corpus accepted")
	}
}

func TestBuildMalformedCorpus(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.tsv")
	if err := os.WriteFile(path, []byte("not a corpus\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-corpus", path}, &stdout, &stderr); err == nil {
		t.Error("malformed corpus accepted")
	}
}

func TestBuildQuiet(t *testing.T) {
	corpusPath := writeCorpus(t, 1000)
	out := filepath.Join(t.TempDir(), "p.bin")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-corpus", corpusPath, "-o", out, "-quiet"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if stderr.Len() != 0 {
		t.Errorf("-quiet still wrote to stderr: %q", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("-quiet wrote to stdout: %q", stdout.String())
	}
}

func TestBuildStatsOut(t *testing.T) {
	corpusPath := writeCorpus(t, 2000)
	dir := t.TempDir()
	out := filepath.Join(dir, "p.bin")
	statsPath := filepath.Join(dir, "stats.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-corpus", corpusPath, "-o", out, "-quiet", "-stats-out", statsPath}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	var report statsReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("stats report is not valid JSON: %v", err)
	}
	if report.Pairs == 0 || report.Rounds == 0 {
		t.Errorf("empty report: %+v", report)
	}
	if report.SnapshotBytes == 0 {
		t.Error("snapshot size missing from report")
	}
	stages := make(map[string]bool)
	for _, s := range report.Stages {
		stages[s.Name] = true
	}
	for _, want := range []string{"extraction", "taxonomy", "prob.algorithm3"} {
		if !stages[want] {
			t.Errorf("stage %q missing from report (have %v)", want, report.Stages)
		}
	}

	// The trace section maps every span onto the paper's algorithms.
	if report.Trace == nil {
		t.Fatal("trace section missing from report")
	}
	if report.Trace.TraceID == "" || report.Trace.DurationUS <= 0 {
		t.Errorf("trace header incomplete: %+v", report.Trace)
	}
	spans := map[string]traceSpan{}
	for _, sp := range report.Trace.Spans {
		spans[sp.Name] = sp
	}
	if sp, ok := spans["probase-build"]; !ok || sp.Algorithm != "" {
		t.Errorf("root span wrong: %+v", sp)
	}
	for name, wantAlgo := range map[string]string{
		"extraction":         "algorithm1",
		"extraction.round.1": "algorithm1",
		"taxonomy":           "algorithm2",
		"prob.algorithm3":    "algorithm3",
		"prob.train":         "section4.1",
		"snapshot.save":      "",
	} {
		sp, ok := spans[name]
		if !ok {
			t.Errorf("trace missing span %q", name)
			continue
		}
		if sp.Algorithm != wantAlgo {
			t.Errorf("span %q algorithm = %q, want %q", name, sp.Algorithm, wantAlgo)
		}
	}
	if rs := spans["extraction.round.1"]; rs.Attrs["accepted"] == "" {
		t.Errorf("round span lost its counters: %+v", rs)
	}
}

func TestBuildStatsToStdout(t *testing.T) {
	corpusPath := writeCorpus(t, 1000)
	out := filepath.Join(t.TempDir(), "p.bin")
	var stdout, stderr bytes.Buffer
	args := []string{"-corpus", corpusPath, "-o", out, "-quiet", "-stats-out", "-"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	var report statsReport
	if err := json.Unmarshal(stdout.Bytes(), &report); err != nil {
		t.Fatalf("stdout stats are not valid JSON: %v\n%s", err, stdout.String())
	}
}

func TestBuildVersionFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-version"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "probase-build version") {
		t.Errorf("stdout = %q", stdout.String())
	}
}

// TestRebuildKeepsMappedSnapshot: rebuilding onto the path a server has
// memory-mapped replaces the file without touching the mapped one —
// the old mapping still walks in full to the same fingerprint.
func TestRebuildKeepsMappedSnapshot(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "p.bin")
	build := func(corpusPath string) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-corpus", corpusPath, "-o", out, "-quiet"}, &stdout, &stderr); err != nil {
			t.Fatal(err)
		}
	}
	build(writeCorpus(t, 2000))
	old, err := snapshot.OpenMapped(out)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	want := taxstats.Fingerprint(old.Graph)

	build(writeCorpus(t, 3000))
	if got := taxstats.Fingerprint(old.Graph); got != want {
		t.Errorf("old mapping fingerprints %s after the rebuild, want %s", got, want)
	}
	rebuilt, err := snapshot.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	if taxstats.Fingerprint(rebuilt.Graph) == want {
		t.Error("rebuild did not replace the snapshot")
	}
	assertOnlyFile(t, dir, "p.bin")
}

// TestFailedBuildKeepsOutput: a build that fails leaves the previous
// snapshot byte-for-byte intact and no temporary file beside it.
func TestFailedBuildKeepsOutput(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "p.bin")
	corpusPath := writeCorpus(t, 1000)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-corpus", corpusPath, "-o", out, "-quiet"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	// A graph-only snapshot carries no build state to extend.
	if err := run([]string{"-base", out, "-corpus", corpusPath, "-o", out, "-quiet"}, &stdout, &stderr); err == nil {
		t.Fatal("delta build over a graph-only base succeeded")
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("failed build changed the previous snapshot")
	}
	assertOnlyFile(t, dir, "p.bin")
}

// assertOnlyFile fails unless dir holds exactly the named file.
func assertOnlyFile(t *testing.T, dir, name string) {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 || des[0].Name() != name {
		var names []string
		for _, de := range des {
			names = append(names, de.Name())
		}
		t.Errorf("%s holds %v, want only %s", dir, names, name)
	}
}

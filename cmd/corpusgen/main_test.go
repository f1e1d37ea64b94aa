package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
)

func TestRunWritesCorpusFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "c.tsv")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-sentences", "500", "-o", out}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sents, err := corpus.ReadSentences(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(sents) != 500 {
		t.Errorf("wrote %d sentences", len(sents))
	}
	if !strings.Contains(stderr.String(), "500 sentences") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

func TestRunStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-sentences", "50", "-o", "-"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	sents, err := corpus.ReadSentences(&stdout)
	if err != nil {
		t.Fatal(err)
	}
	if len(sents) != 50 {
		t.Errorf("stdout had %d sentences", len(sents))
	}
}

func TestRunBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-nope"}, &stdout, &stderr); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunUnwritablePath(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-sentences", "10", "-o", "/nonexistent-dir/x.tsv"}, &stdout, &stderr); err == nil {
		t.Error("unwritable path accepted")
	}
}

func TestVersionFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-version"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "corpusgen version") {
		t.Errorf("stdout = %q", stdout.String())
	}
}

// TestRunReplacesAtomically: regenerating onto an existing corpus
// leaves a reader of the old file with the old bytes, and no temporary
// file beside the new one.
func TestRunReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "c.tsv")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-sentences", "200", "-o", out}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if err := run([]string{"-sentences", "50", "-o", out}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(old)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("reader of the old corpus saw %d bytes, want its %d", len(got), len(want))
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 {
		t.Errorf("directory holds %d entries after regenerating, want 1", len(des))
	}
}

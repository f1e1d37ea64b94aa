package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// entries lists the names in dir.
func entries(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

func TestWriteReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := os.WriteFile(path, []byte("old contents"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, 0o644, func(w io.Writer) error {
		_, err := io.WriteString(w, "new")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" {
		t.Errorf("contents = %q, want %q", got, "new")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Errorf("mode = %v, want 0644", fi.Mode().Perm())
	}
	if names := entries(t, dir); len(names) != 1 {
		t.Errorf("directory holds %v, want only out.bin", names)
	}
}

// TestWriteKeepsOpenReaders: a reader holding the old file keeps
// reading the old bytes in full after the replacement.
func TestWriteKeepsOpenReaders(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.bin")
	if err := os.WriteFile(path, []byte("old contents"), 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if err := Write(path, 0o644, func(w io.Writer) error {
		_, err := io.WriteString(w, "x")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(old)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old contents" {
		t.Errorf("open reader sees %q after replace, want the old contents", got)
	}
}

// TestWriteFailureLeavesTarget: a write that fails part-way leaves the
// target untouched and no temporary file behind.
func TestWriteFailureLeavesTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := os.WriteFile(path, []byte("old contents"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := Write(path, 0o644, func(w io.Writer) error {
		io.WriteString(w, "half a fi")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old contents" {
		t.Errorf("target = %q after a failed write, want the old contents", got)
	}
	if names := entries(t, dir); len(names) != 1 {
		t.Errorf("directory holds %v after a failed write, want only out.bin", names)
	}
}

func TestWriteMissingDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no", "such", "out.bin")
	if err := Write(path, 0o644, func(io.Writer) error { return nil }); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

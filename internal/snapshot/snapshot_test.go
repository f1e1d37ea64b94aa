package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/extraction"
	"repro/internal/graph"
)

// buildProbase constructs a tiny Probase with Γ from handcrafted
// sentences, enough to exercise both snapshot flavours.
func buildProbase(t *testing.T) *core.Probase {
	t.Helper()
	sentences := []string{
		"animals such as cats, dogs and rabbits live here.",
		"domestic animals such as cats and dogs are popular.",
		"companies such as IBM, Microsoft and Google compete.",
		"large companies such as IBM and Microsoft hire.",
		"pets such as cats and dogs need care.",
	}
	inputs := make([]extraction.Input, len(sentences))
	for i, s := range sentences {
		inputs[i] = extraction.Input{Text: s, PageScore: 0.9}
	}
	pb, err := core.Build(inputs, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return pb
}

func graphOnlyBytes(t *testing.T, pb *core.Probase) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pb.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func fullBytes(t *testing.T, pb *core.Probase) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pb.SaveFull(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenFlavours(t *testing.T) {
	pb := buildProbase(t)
	for _, tc := range []struct {
		name string
		data []byte
		full bool
	}{
		{"graph-only", graphOnlyBytes(t, pb), false},
		{"full", fullBytes(t, pb), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Open(writeTemp(t, tc.data))
			if err != nil {
				t.Fatal(err)
			}
			if got.Graph.NumNodes() != pb.Graph.NumNodes() {
				t.Errorf("nodes = %d, want %d", got.Graph.NumNodes(), pb.Graph.NumNodes())
			}
			if (got.Store != nil) != tc.full {
				t.Errorf("Store presence = %v, want %v", got.Store != nil, tc.full)
			}
			if rs := got.InstancesOf("animals", 5); len(rs) == 0 {
				t.Error("loaded snapshot answers no queries")
			}
		})
	}
}

// TestLoadRecordsFormat pins the snapshot-identity contract: Load
// stamps the Probase with the on-disk format magic it sniffed, for
// every flavour, while in-memory builds stay blank.
func TestLoadRecordsFormat(t *testing.T) {
	pb := buildProbase(t)
	if pb.Format != "" {
		t.Errorf("in-memory build has format %q, want empty", pb.Format)
	}

	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"v2 csr", graphOnlyBytes(t, pb), "PBC2"},
		{"full", fullBytes(t, pb), "PBFL"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Open(writeTemp(t, tc.data))
			if err != nil {
				t.Fatal(err)
			}
			if got.Format != tc.want {
				t.Errorf("format = %q, want %q", got.Format, tc.want)
			}
		})
	}
}

// TestLoadRecordsFormatLargeSnapshot guards the magic-aliasing trap:
// Peek returns a view into the bufio buffer, so a snapshot big enough
// to refill the buffer overwrites the peeked bytes mid-load. The format
// must be copied out before reading on, or it comes back as garbage —
// which a sub-buffer-sized test snapshot can never catch.
func TestLoadRecordsFormatLargeSnapshot(t *testing.T) {
	var sentences []string
	for i := 0; i < 400; i++ {
		tag := fmt.Sprintf("%c%c%c", 'a'+i/100, 'a'+(i/10)%10, 'a'+i%10)
		s := fmt.Sprintf(
			"category%ss such as item%salpha, item%sbeta and item%sgamma exist.",
			tag, tag, tag, tag)
		// Each pair needs repeated evidence to survive extraction.
		sentences = append(sentences, s, s, s)
	}
	inputs := make([]extraction.Input, len(sentences))
	for i, s := range sentences {
		inputs[i] = extraction.Input{Text: s, PageScore: 0.9}
	}
	pb, err := core.Build(inputs, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := graphOnlyBytes(t, pb)
	if len(data) < 8192 {
		t.Fatalf("snapshot only %d bytes; too small to exercise a buffer refill", len(data))
	}
	got, err := Open(writeTemp(t, data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Format != "PBC2" {
		t.Errorf("format = %q, want %q", got.Format, "PBC2")
	}
}

func TestOpenErrors(t *testing.T) {
	pb := buildProbase(t)
	gsnap := graphOnlyBytes(t, pb)
	fsnap := fullBytes(t, pb)

	corruptCRC := append([]byte(nil), gsnap...)
	corruptCRC[len(corruptCRC)-1] ^= 0xFF

	fullCorrupt := append([]byte(nil), fsnap...)
	fullCorrupt[len(fullCorrupt)-1] ^= 0xFF

	cases := []struct {
		name    string
		data    []byte // nil means: use a missing path instead
		wantErr error  // nil means: any error is fine
	}{
		{name: "missing file", data: nil},
		{name: "empty stream", data: []byte{}},
		{name: "short magic", data: []byte("PB")},
		{name: "bad magic", data: []byte("XXXXgarbage")},
		{name: "truncated graph stream", data: gsnap[:len(gsnap)/2]},
		{name: "truncated full stream", data: fsnap[:len(fsnap)/2]},
		{name: "full magic only", data: []byte("PBFL")},
		{name: "bad graph checksum", data: corruptCRC, wantErr: graph.ErrChecksum},
		{name: "bad checksum inside full snapshot", data: fullCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "does-not-exist.bin")
			if tc.data != nil {
				path = writeTemp(t, tc.data)
			}
			_, err := Open(path)
			if err == nil {
				t.Fatal("Open succeeded on invalid input")
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Errorf("err = %v, want errors.Is(…, %v)", err, tc.wantErr)
			}
		})
	}
}

// TestOpenShortFileError pins the error contract for inputs too short
// to carry a magic: a clear "not a snapshot" diagnosis wrapping
// ErrBadSnapshot, never a bare EOF out of the sniffing machinery.
func TestOpenShortFileError(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"zero-byte file", []byte{}},
		{"one byte", []byte("P")},
		{"three bytes", []byte("PBC")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Open(writeTemp(t, tc.data))
			if err == nil {
				t.Fatal("Open accepted a short file")
			}
			if !errors.Is(err, graph.ErrBadSnapshot) {
				t.Errorf("err = %v, want errors.Is(…, ErrBadSnapshot)", err)
			}
			if !strings.Contains(err.Error(), "too short to be a snapshot") {
				t.Errorf("err = %q, want a 'too short to be a snapshot' diagnosis", err)
			}
		})
	}
}

// TestOpenMappedFlavours: the mapped entry point accepts both snapshot
// flavours and answers identically to the copying loader; only the
// graph-only flavour actually maps.
func TestOpenMappedFlavours(t *testing.T) {
	pb := buildProbase(t)
	for _, tc := range []struct {
		name     string
		data     []byte
		format   string
		mappable bool
	}{
		{"v2 csr", graphOnlyBytes(t, pb), "PBC2", true},
		{"full", fullBytes(t, pb), "PBFL", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeTemp(t, tc.data)
			want, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := OpenMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			defer got.Close()
			if got.Format != tc.format {
				t.Errorf("format = %q, want %q", got.Format, tc.format)
			}
			if !tc.mappable && got.Mapped() {
				t.Errorf("%s claims to be mapped", tc.name)
			}
			if got.Graph.NumNodes() != want.Graph.NumNodes() ||
				got.Graph.NumEdges() != want.Graph.NumEdges() {
				t.Errorf("mapped shape %d/%d != copied %d/%d",
					got.Graph.NumNodes(), got.Graph.NumEdges(),
					want.Graph.NumNodes(), want.Graph.NumEdges())
			}
			if rs := got.InstancesOf("animals", 5); len(rs) == 0 {
				t.Error("mapped snapshot answers no queries")
			}
			if err := got.Close(); err != nil {
				t.Fatal(err)
			}
			if err := got.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
		})
	}
}

// TestOpenMappedErrors: corrupt inputs — including a file truncated in
// the middle of the label arena — are rejected with the same error
// taxonomy as the copying loader, and never leak the mapping (verified
// indirectly: Close of a failed open is unreachable, so rejection must
// have closed it; the race detector would flag a leaked unmapped read).
func TestOpenMappedErrors(t *testing.T) {
	pb := buildProbase(t)
	gsnap := graphOnlyBytes(t, pb)

	// Section 1 of the rev-3 table is the label arena; cut inside it.
	arenaOff := int(le64(gsnap[32+16:]))
	arenaLen := int(le64(gsnap[40+16:]))
	midArena := gsnap[:arenaOff+arenaLen/2]

	corrupt := append([]byte(nil), gsnap...)
	corrupt[len(corrupt)-1] ^= 0xFF

	cases := []struct {
		name    string
		data    []byte
		wantErr error
	}{
		{name: "empty file", data: []byte{}, wantErr: graph.ErrBadSnapshot},
		{name: "short magic", data: []byte("PB"), wantErr: graph.ErrBadSnapshot},
		{name: "truncated mid-arena", data: midArena, wantErr: graph.ErrBadSnapshot},
		{name: "bad checksum", data: corrupt, wantErr: graph.ErrChecksum},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := OpenMapped(writeTemp(t, tc.data))
			if err == nil {
				t.Fatal("OpenMapped accepted invalid input")
			}
			if !errors.Is(err, tc.wantErr) {
				t.Errorf("err = %v, want errors.Is(…, %v)", err, tc.wantErr)
			}
		})
	}
	t.Run("missing file", func(t *testing.T) {
		if _, err := OpenMapped(filepath.Join(t.TempDir(), "nope.bin")); err == nil {
			t.Fatal("OpenMapped accepted a missing file")
		}
	})
}

func le64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// Load sniffs the magic through a buffered reader, so it must accept a
// pure one-way stream (no Seek, no ReadByte) for every flavour, read
// each byte exactly once, and still route graph-only streams away from
// LoadFull.
func TestLoadFromNonSeekableStream(t *testing.T) {
	pb := buildProbase(t)
	for _, tc := range []struct {
		name string
		data []byte
		full bool
	}{
		{"graph-only", graphOnlyBytes(t, pb), false},
		{"full", fullBytes(t, pb), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Load(streamOnly{bytes.NewReader(tc.data)})
			if err != nil {
				t.Fatal(err)
			}
			if (got.Store != nil) != tc.full {
				t.Errorf("Store presence = %v, want %v", got.Store != nil, tc.full)
			}
			if got.Graph.NumNodes() != pb.Graph.NumNodes() {
				t.Errorf("nodes = %d, want %d", got.Graph.NumNodes(), pb.Graph.NumNodes())
			}
		})
	}
}

// streamOnly hides every interface of the wrapped reader except
// io.Reader, modelling a network stream or pipe.
type streamOnly struct{ r *bytes.Reader }

func (s streamOnly) Read(p []byte) (int, error) { return s.r.Read(p) }

package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func TestSaveV2RoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    *Builder
	}{
		{"diamond", func() *Builder { s, _ := diamond(); return s }()},
		{"random", randomDAG(120, 400, 9)},
		{"empty", NewBuilder()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.b.Freeze()
			var buf bytes.Buffer
			if err := f.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadFrozen(&buf)
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesRef(t, refOfFrozen(f), loaded)
		})
	}
}

func TestLoadFrozenRejectsCorruption(t *testing.T) {
	snap := validV3(t)
	cases := map[string][]byte{
		"empty":       {},
		"magic only":  snap[:4],
		"wrong magic": []byte("XXXX garbage"),
		"truncated":   snap[:len(snap)/2],
		"missing crc": snap[:len(snap)-4],
	}
	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)-1] ^= 0xFF
	cases["bad checksum"] = flipped
	// Corrupt a byte in the middle (offsets / edges region): must fail
	// the checksum or the structural validation, never panic.
	middle := append([]byte(nil), snap...)
	middle[len(middle)/2] ^= 0x55
	cases["corrupt middle"] = middle
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := LoadFrozen(bytes.NewReader(data)); err == nil {
				t.Fatalf("corrupt snapshot accepted")
			}
		})
	}
}

func TestLoadFrozenBadChecksumError(t *testing.T) {
	snap := validV3(t)
	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)-1] ^= 0xFF
	if _, err := LoadFrozen(bytes.NewReader(flipped)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

// TestLoadFrozenRejectsHugeCounts: implausible node/edge counts must be
// rejected before any large allocation is attempted.
func TestLoadFrozenRejectsHugeCounts(t *testing.T) {
	for name, field := range map[string]int{"nodes": 8, "edges": 16} {
		huge := validV3(t)
		binary.LittleEndian.PutUint64(huge[field:], 1<<40)
		refreshCRC(huge)
		if _, err := LoadFrozen(bytes.NewReader(huge)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", name, err)
		}
	}
}

// TestLoadFrozenNonSeekable: LoadFrozen must work on a pure stream (no
// Seek, no ReadByte).
func TestLoadFrozenNonSeekable(t *testing.T) {
	b := randomDAG(40, 100, 23)
	f, err := LoadFrozen(onlyReader{bytes.NewBuffer(snapBytes(t, b.Freeze()))})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesRef(t, refOf(b), f)
}

// onlyReader hides every interface except io.Reader.
type onlyReader struct{ r *bytes.Buffer }

func (o onlyReader) Read(p []byte) (int, error) { return o.r.Read(p) }

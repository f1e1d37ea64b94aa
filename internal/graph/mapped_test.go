package graph

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"repro/internal/mmap"
)

// validV3 returns a revision-3 snapshot of a non-trivial graph.
func validV3(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := randomDAG(60, 180, 29).Freeze().Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refreshCRC rewrites the trailer after a deliberate mutation so the
// test exercises the structural check, not the checksum.
func refreshCRC(data []byte) {
	binary.LittleEndian.PutUint32(data[len(data)-4:],
		crc32.ChecksumIEEE(data[:len(data)-4]))
}

func TestLoadMappedFromFile(t *testing.T) {
	b := randomDAG(80, 240, 31)
	want := b.Freeze()
	path := filepath.Join(t.TempDir(), "graph.pbc2")
	var buf bytes.Buffer
	if err := want.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := mmap.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := LoadMapped(m.Bytes(), m)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Mapped() != m.Mapped() {
		t.Errorf("Frozen.Mapped() = %v, mapping.Mapped() = %v", f.Mapped(), m.Mapped())
	}
	assertMatchesRef(t, refOfFrozen(want), f)
}

// TestLoadMappedZeroCopyAliasing: on a zero-copy view the label arena
// must alias the input bytes, not a heap copy.
func TestLoadMappedZeroCopyAliasing(t *testing.T) {
	data := validV3(t)
	f, err := LoadMapped(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Mapped() {
		t.Skip("host cannot zero-copy (big-endian or unexpected Edge layout)")
	}
	lo := uintptr(unsafe.Pointer(&data[0]))
	hi := lo + uintptr(len(data))
	if p := uintptr(unsafe.Pointer(&f.arena.data[0])); p < lo || p >= hi {
		t.Error("label arena does not alias the input buffer")
	}
}

// TestLoadMappedUnalignedFallsBack: an input buffer that is not 8-byte
// aligned must still load correctly — via the copying decoder.
func TestLoadMappedUnalignedFallsBack(t *testing.T) {
	data := validV3(t)
	want, err := LoadFrozen(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	shifted := make([]byte, len(data)+1)
	copy(shifted[1:], data)
	f, err := LoadMapped(shifted[1:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Mapped() {
		t.Fatal("unaligned buffer claims zero-copy")
	}
	assertMatchesRef(t, refOfFrozen(want), f)
}

// TestLoadMappedLegacyFormats: the retired encodings — PBGR v1
// adjacency lists and the unaligned PBC2 revision 2 — are rejected by
// both loaders, not decoded. These are the bytes of `fruit → apple`
// (count 3, plausibility 0.5) as those writers produced them.
func TestLoadMappedLegacyFormats(t *testing.T) {
	for name, hexBytes := range map[string]string{
		"v1 PBGR": "50424752010205667275697405617070" +
			"6c6501010103000000000000e03f0000" +
			"38bc58",
		"PBC2 rev2": "5042433202020105667275697405617070" +
			"6c65000000000100000001000000010000000300000000000000" +
			"000000000000e03f" +
			"000000000000000001000000000000000300000000000000" +
			"000000000000e03f2f8b5b59",
	} {
		t.Run(name, func(t *testing.T) {
			data, err := hex.DecodeString(hexBytes)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := LoadMapped(data, nil); !errors.Is(err, ErrBadSnapshot) {
				t.Errorf("LoadMapped: err = %v, want ErrBadSnapshot", err)
			}
			if _, err := LoadFrozen(bytes.NewReader(data)); !errors.Is(err, ErrBadSnapshot) {
				t.Errorf("LoadFrozen: err = %v, want ErrBadSnapshot", err)
			}
		})
	}
}

// TestSaveV3Deterministic: the canonical layout means one graph has
// exactly one encoding.
func TestSaveV3Deterministic(t *testing.T) {
	f := randomDAG(30, 90, 43).Freeze()
	var a, b bytes.Buffer
	if err := f.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := f.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of the same graph differ")
	}
}

func TestLoadMappedRejectsCorruption(t *testing.T) {
	snap := validV3(t)

	// Cut inside the label-data section (section 1 of the table).
	arenaOff := binary.LittleEndian.Uint64(snap[32+16:])
	arenaLen := binary.LittleEndian.Uint64(snap[40+16:])
	midArena := snap[:arenaOff+arenaLen/2]

	badTable := append([]byte(nil), snap...)
	badTable[32+32] ^= 0x08 // shift section 2's offset
	refreshCRC(badTable)

	badCount := append([]byte(nil), snap...)
	badCount[12] = 0xFF // node count beyond maxSnapshotNodes
	refreshCRC(badCount)

	badPad := append([]byte(nil), snap...)
	badPad[5] = 0x01
	refreshCRC(badPad)

	cases := map[string][]byte{
		"empty":             {},
		"header only":       snap[:v3HeaderSize],
		"truncated arena":   midArena,
		"trailing garbage":  append(append([]byte(nil), snap...), 0xAA),
		"bad section table": badTable,
		"huge node count":   badCount,
		"nonzero pad":       badPad,
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := LoadMapped(append([]byte(nil), data...), nil); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("err = %v, want ErrBadSnapshot", err)
			}
		})
	}

	t.Run("flipped byte fails checksum", func(t *testing.T) {
		flipped := append([]byte(nil), snap...)
		flipped[len(flipped)/2] ^= 0x40
		if _, err := LoadMapped(flipped, nil); !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("err = %v, want ErrChecksum or ErrBadSnapshot", err)
		}
	})
}

// countingCloser records Close calls so tests can pin the ownership
// contract of LoadMapped.
type countingCloser struct{ n int }

func (c *countingCloser) Close() error { c.n++; return nil }

func TestLoadMappedCloserOwnership(t *testing.T) {
	snap := validV3(t)

	t.Run("retained until Frozen.Close on zero-copy", func(t *testing.T) {
		c := &countingCloser{}
		f, err := LoadMapped(append([]byte(nil), snap...), c)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Mapped() {
			t.Skip("host cannot zero-copy")
		}
		if c.n != 0 {
			t.Fatalf("closer closed %d times before Frozen.Close", c.n)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		if c.n != 1 {
			t.Fatalf("closer closed %d times, want exactly 1", c.n)
		}
	})

	t.Run("closed immediately on parse error", func(t *testing.T) {
		c := &countingCloser{}
		if _, err := LoadMapped([]byte("PBC2\x03 garbage"), c); err == nil {
			t.Fatal("corrupt input accepted")
		}
		if c.n != 1 {
			t.Fatalf("closer closed %d times, want 1", c.n)
		}
	})

	t.Run("closed immediately on copy fallback", func(t *testing.T) {
		// An unaligned buffer cannot be mapped zero-copy.
		unaligned := make([]byte, len(snap)+1)[1:]
		copy(unaligned, snap)
		c := &countingCloser{}
		f, err := LoadMapped(unaligned, c)
		if err != nil {
			t.Fatal(err)
		}
		if c.n != 1 {
			t.Fatalf("closer closed %d times, want 1", c.n)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if c.n != 1 {
			t.Fatalf("Frozen.Close re-closed the already-closed closer (%d)", c.n)
		}
	})
}

// TestMappedMatchesStreamedExactly: the mapped and streamed loaders of
// one snapshot answer every read identically.
func TestMappedMatchesStreamedExactly(t *testing.T) {
	snap := validV3(t)
	streamed, err := LoadFrozen(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadMapped(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesRef(t, refOfFrozen(streamed), mapped)
}

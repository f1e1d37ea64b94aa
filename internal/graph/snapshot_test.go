package graph

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// workedExample is the 244-byte snapshot of `fruit → apple` (count 3,
// plausibility 0.5) that FORMATS.md walks through byte by byte.
const workedExample = `
50 42 43 32 03 00 00 00  02 00 00 00 00 00 00 00
01 00 00 00 00 00 00 00  06 00 00 00 00 00 00 00
80 00 00 00 00 00 00 00  0c 00 00 00 00 00 00 00
90 00 00 00 00 00 00 00  0a 00 00 00 00 00 00 00
a0 00 00 00 00 00 00 00  0c 00 00 00 00 00 00 00
b0 00 00 00 00 00 00 00  18 00 00 00 00 00 00 00
c8 00 00 00 00 00 00 00  0c 00 00 00 00 00 00 00
d8 00 00 00 00 00 00 00  18 00 00 00 00 00 00 00
00 00 00 00 05 00 00 00  0a 00 00 00 00 00 00 00
66 72 75 69 74 61 70 70  6c 65 00 00 00 00 00 00
00 00 00 00 01 00 00 00  01 00 00 00 00 00 00 00
01 00 00 00 00 00 00 00  03 00 00 00 00 00 00 00
00 00 00 00 00 00 e0 3f  00 00 00 00 00 00 00 00
01 00 00 00 00 00 00 00  00 00 00 00 00 00 00 00
03 00 00 00 00 00 00 00  00 00 00 00 00 00 e0 3f
59 04 1c 16`

func workedExampleBytes(t *testing.T) []byte {
	t.Helper()
	data, err := hex.DecodeString(strings.Join(strings.Fields(workedExample), ""))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// loadBoth loads data through the copying and the mapped loader and
// fails unless both accept it and agree.
func loadBoth(t *testing.T, data []byte) *Frozen {
	t.Helper()
	copied, err := LoadFrozen(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("LoadFrozen: %v", err)
	}
	mapped, err := LoadMapped(append([]byte(nil), data...), nil)
	if err != nil {
		t.Fatalf("LoadMapped: %v", err)
	}
	assertMatchesRef(t, refOfFrozen(copied), mapped)
	return copied
}

// TestSnapshotRoundTrip pins the writer to the worked example in
// FORMATS.md: the spec's bytes are exactly what Save emits, and they
// load back to the same graph.
func TestSnapshotRoundTrip(t *testing.T) {
	b := NewBuilder()
	b.AddEdge(b.Intern("fruit"), b.Intern("apple"), 3, 0.5)
	want := workedExampleBytes(t)
	if got := snapBytes(t, b.Freeze()); !bytes.Equal(got, want) {
		t.Fatalf("Save diverges from FORMATS.md's worked example:\n got %x\nwant %x", got, want)
	}
	assertMatchesRef(t, refOf(b), loadBoth(t, want))
}

func TestSnapshotEmptyStore(t *testing.T) {
	data := snapBytes(t, NewBuilder().Freeze())
	got := loadBoth(t, data)
	if got.NumNodes() != 0 || got.NumEdges() != 0 {
		t.Error("empty store round trip not empty")
	}
	if again := snapBytes(t, got); !bytes.Equal(again, data) {
		t.Error("empty snapshot does not re-save to the same bytes")
	}
}

// TestLoadRejectsCorruption: every byte the parser does not carry into
// the graph — reserved words and alignment padding — must be zero, so a
// graph has exactly one valid encoding, and a row offset must not run
// past the edge array. The CRC is recomputed after each mutation, so
// only the structural validator stands in the way.
func TestLoadRejectsCorruption(t *testing.T) {
	for _, tc := range []struct {
		name string
		off  int
	}{
		{"out-edge reserved word", 0xb4},
		{"in-edge reserved word", 0xdc},
		{"padding after labelData", 0x9a},
		{"padding after inOff", 0xd4},
		{"out row past the edge array", 0xa4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := workedExampleBytes(t)
			data[tc.off] = 0x07
			refreshCRC(data)
			if _, err := LoadFrozen(bytes.NewReader(data)); !errors.Is(err, ErrBadSnapshot) {
				t.Errorf("LoadFrozen: err = %v, want ErrBadSnapshot", err)
			}
			if _, err := LoadMapped(data, nil); !errors.Is(err, ErrBadSnapshot) {
				t.Errorf("LoadMapped: err = %v, want ErrBadSnapshot", err)
			}
		})
	}
}

// TestLoadChecksumError: a flipped payload byte is caught by the CRC on
// the mapped path too, before any structural check could misreport it.
func TestLoadChecksumError(t *testing.T) {
	data := workedExampleBytes(t)
	data[0x90] ^= 0x01 // first label byte
	if _, err := LoadMapped(data, nil); !errors.Is(err, ErrChecksum) {
		t.Errorf("err = %v, want ErrChecksum", err)
	}
}

// Property: random graphs survive a save/load round trip exactly, on
// both loaders, and re-save to the same bytes.
func TestSnapshotRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewBuilder()
		n := 2 + rng.Intn(40)
		for i := 0; i < n; i++ {
			s.Intern(randLabel(rng))
		}
		edges := rng.Intn(3 * n)
		for i := 0; i < edges; i++ {
			from := NodeID(rng.Intn(len(s.labels)))
			to := NodeID(rng.Intn(len(s.labels)))
			if from == to {
				continue
			}
			s.AddEdge(from, to, int64(rng.Intn(100)+1), rng.Float64())
		}
		data := snapBytes(t, s.Freeze())
		got := loadBoth(t, data)
		assertMatchesRef(t, refOf(s), got)
		return bytes.Equal(snapBytes(t, got), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func randLabel(rng *rand.Rand) string {
	letters := "abcdefghijklmnopqrstuvwxyz "
	n := 1 + rng.Intn(12)
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	// Collisions are possible; Intern dedups them.
	return string(b) + string(rune('0'+rng.Intn(10))) + string(rune('a'+rng.Intn(26)))
}

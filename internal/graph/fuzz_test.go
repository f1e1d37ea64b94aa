package graph

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzSeedStore builds a small valid store whose snapshot seeds the
// fuzz corpus.
func fuzzSeedStore() *Builder {
	s := NewBuilder()
	company := s.Intern("company")
	it := s.Intern("it company")
	ibm := s.Intern("IBM")
	msft := s.Intern("Microsoft")
	s.AddEdge(company, it, 20, 0.95)
	s.AddEdge(company, ibm, 50, 0.99)
	s.AddEdge(it, ibm, 10, 0.9)
	s.AddEdge(it, msft, 30, 0.99)
	return s
}

// FuzzLoadFrozen feeds arbitrary bytes to both snapshot loaders.
// Truncation, corrupt offsets and mismatched counts must error — never
// panic, hang or allocate implausibly — and the two loaders must agree
// on accept/reject. Every input runs a second time with its CRC trailer
// recomputed, so mutations reach the structural validator instead of
// stopping at the checksum. Accepted input must re-save byte-for-byte:
// a graph has exactly one valid encoding.
func FuzzLoadFrozen(f *testing.F) {
	var valid bytes.Buffer
	if err := fuzzSeedStore().Freeze().Save(&valid); err != nil {
		f.Fatal(err)
	}
	snap := valid.Bytes()
	sectionOff := func(i int) int { return int(binary.LittleEndian.Uint64(snap[32+16*i:])) }
	sectionEnd := func(i int) int { return sectionOff(i) + int(binary.LittleEndian.Uint64(snap[40+16*i:])) }
	mutate := func(off int, b byte) []byte {
		m := append([]byte(nil), snap...)
		m[off] = b
		return m
	}
	f.Add(snap)
	f.Add(snap[:len(snap)/2])                          // truncated mid-arena
	f.Add(snap[:4])                                    // magic only
	f.Add([]byte{})                                    // empty
	f.Add([]byte("PBC2xxxxx"))                         // magic + garbage
	f.Add([]byte("XXXX"))                              // wrong magic
	f.Add(mutate(len(snap)-1, ^snap[len(snap)-1]))     // broken checksum
	f.Add(mutate(len(snap)/2, snap[len(snap)/2]^0x55)) // corrupt offsets / edge region
	f.Add(mutate(40, snap[40]^0x01))                   // corrupt the section table
	f.Add(mutate(9, 0xFF))                             // implausible node count
	f.Add([]byte("PBC2\x03\x00\x00\x00"))              // header cut before the counts
	f.Add(mutate(sectionOff(3)+4, 0x07))               // nonzero reserved word
	f.Add(mutate(sectionEnd(1), 0x07))                 // nonzero padding after the labels
	f.Add(mutate(4, 0x02))                             // retired PBC2 revision 2
	f.Add(append([]byte("PBGR\x01"), snap[5:]...))     // retired PBGR magic
	f.Add(mutate(sectionOff(2)+12, 0xFF))              // an out row running past the edges

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		checkLoaders(t, data)
		if len(data) >= 4 {
			fixed := append([]byte(nil), data...)
			refreshCRC(fixed)
			checkLoaders(t, fixed)
		}
	})
}

// checkLoaders runs data through LoadMapped and LoadFrozen: they must
// agree on accept/reject, and whatever they accept must re-save to
// exactly data.
func checkLoaders(t *testing.T, data []byte) {
	t.Helper()
	fm, errM := LoadMapped(append([]byte(nil), data...), nil)
	fz, err := LoadFrozen(bytes.NewReader(data))
	if (err == nil) != (errM == nil) {
		t.Fatalf("loaders disagree: LoadFrozen err=%v, LoadMapped err=%v", err, errM)
	}
	if err != nil {
		return
	}
	for name, g := range map[string]*Frozen{"LoadFrozen": fz, "LoadMapped": fm} {
		var buf bytes.Buffer
		if err := g.Save(&buf); err != nil {
			t.Fatalf("%s: accepted snapshot fails to save: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("%s: accepted snapshot does not re-save byte-for-byte", name)
		}
	}
}

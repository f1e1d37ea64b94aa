package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Graph snapshots use exactly one encoding: the "PBC2" container at
// layout revision 3, which serialises the Frozen CSR layout so a loader
// can memory-map it (see mapped.go for the layout and its parser, and
// FORMATS.md for the byte-level specification). Any other magic or
// revision is rejected with ErrBadSnapshot.
//
// The derived tables (label index, node classes, topo levels, depths)
// are recomputed at load: they are cheap relative to parsing and
// keeping them out of the file means the format cannot disagree with
// itself about them.
const (
	csrMagic = "PBC2"
	// csrRevArena is the aligned, arena-bearing, mappable layout.
	csrRevArena = 3

	maxSnapshotNodes = 1 << 28
	maxSnapshotEdges = 1 << 28
	maxLabelLen      = 1 << 20
)

var (
	// ErrBadSnapshot reports a structurally invalid snapshot.
	ErrBadSnapshot = errors.New("graph: bad snapshot")
	// ErrChecksum reports snapshot corruption.
	ErrChecksum = errors.New("graph: snapshot checksum mismatch")
)

// errBadSnapshotf wraps ErrBadSnapshot with a formatted detail message.
func errBadSnapshotf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrBadSnapshot}, args...)...)
}

type crcWriter struct {
	w   *bufio.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p)
	return cw.w.Write(p)
}

// Save writes the frozen view as a PBC2 snapshot. The encoding is
// canonical: equal graphs produce equal bytes.
func (f *Frozen) Save(w io.Writer) error { return saveV3(w, f) }

func writeUint32s(w io.Writer, vs []uint32) error {
	var buf [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(buf[:], v)
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

// LoadFrozen reads a whole snapshot from r and decodes it onto the
// heap. r need not be seekable. This is the copying loader; for the
// zero-copy path over a memory-mapped file, see LoadMapped.
func LoadFrozen(r io.Reader) (*Frozen, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, errBadSnapshotf("reading stream: %v", err)
	}
	return parseV3(data, false)
}

// validateCSR checks one direction's offset table and raw edge records
// before anything slices into them: offsets must start at 0, be
// nondecreasing and span the records exactly, and every row must be
// strictly To-ascending with in-range targets and a zero reserved word.
func validateCSR(n int, dir string, off []uint32, recs []byte) error {
	count := uint32(len(recs) / v3EdgeRecordSize)
	if off[0] != 0 || off[n] != count {
		return errBadSnapshotf("%s offsets do not span edge array", dir)
	}
	for i := 0; i < n; i++ {
		lo, hi := off[i], off[i+1]
		if lo > hi || hi > count {
			return errBadSnapshotf("%s offsets out of order at node %d", dir, i)
		}
		var prev uint32
		for j := lo; j < hi; j++ {
			rec := recs[v3EdgeRecordSize*int(j):]
			to := binary.LittleEndian.Uint32(rec[0:4])
			if to >= uint32(n) {
				return errBadSnapshotf("%s edge target out of range at node %d", dir, i)
			}
			if j > lo && to <= prev {
				return errBadSnapshotf("%s row of node %d not sorted", dir, i)
			}
			if binary.LittleEndian.Uint32(rec[4:8]) != 0 {
				return errBadSnapshotf("%s edge of node %d has a nonzero reserved word", dir, i)
			}
			prev = to
		}
	}
	return nil
}

// validateTranspose cross-checks the two directions cheaply: per-node
// indegree derived from the out array must match the in offsets, and
// the total edge counts must agree (full mirror equality is asserted by
// tests, not re-derived on every load).
func validateTranspose(f *Frozen) error {
	n := f.NumNodes()
	indeg := make([]uint32, n)
	for _, e := range f.outEdges {
		indeg[e.To]++
	}
	for i := 0; i < n; i++ {
		if f.inOff[i+1]-f.inOff[i] != indeg[i] {
			return fmt.Errorf("%w: in-degree of node %d disagrees with out edges", ErrBadSnapshot, i)
		}
	}
	return nil
}

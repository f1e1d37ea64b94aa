package graph

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"unsafe"
)

// PBC2 layout revision 3 — the memory-mappable encoding. Every
// structure has a fixed width and lives at an 8-byte-aligned offset, so
// a loader can point its in-memory arrays straight at the file bytes
// instead of decoding them:
//
//	offset 0    magic            [4]byte "PBC2"
//	offset 4    revision         byte    0x03 (uvarint-compatible)
//	offset 5    pad              [3]byte zero
//	offset 8    nodes            uint64
//	offset 16   edges            uint64
//	offset 24   section count    uint64  (6)
//	offset 32   section table    6 x { offset uint64, length uint64 }
//	offset 128  sections, each zero-padded to an 8-byte boundary:
//	              0 labelOff   (nodes+1) x uint32
//	              1 labelData  labels back-to-back, no terminators
//	              2 outOff     (nodes+1) x uint32
//	              3 outEdges   edges x edge record
//	              4 inOff      (nodes+1) x uint32
//	              5 inEdges    edges x edge record
//	trailer     crc32           uint32 (IEEE, over everything before it)
//
// An edge record is 24 bytes: to uint32, reserved uint32 (zero),
// count uint64, plausibility float64 bits — deliberately the memory
// layout of graph.Edge on a 64-bit little-endian host, so the on-disk
// array IS the in-memory array there. All integers little-endian. The
// section table is canonical: offsets and lengths are fully determined
// by (nodes, edges, label bytes), and the parser rejects any table that
// deviates, any nonzero padding and any nonzero reserved word, so there
// is exactly one valid encoding of a given graph.
// The full byte-level specification with a worked example is in
// FORMATS.md.
const (
	v3HeaderSize     = 128
	v3SectionCount   = 6
	v3EdgeRecordSize = 24
)

type v3Section struct{ off, length uint64 }

func align8(pos uint64) uint64 { return (pos + 7) &^ 7 }

// v3Layout computes the canonical section table for a graph with the
// given node count, edge count and label-arena size.
func v3Layout(nodes, edges, labelBytes uint64) [v3SectionCount]v3Section {
	lengths := [v3SectionCount]uint64{
		4 * (nodes + 1),
		labelBytes,
		4 * (nodes + 1),
		v3EdgeRecordSize * edges,
		4 * (nodes + 1),
		v3EdgeRecordSize * edges,
	}
	var secs [v3SectionCount]v3Section
	pos := uint64(v3HeaderSize)
	for i, l := range lengths {
		pos = align8(pos)
		secs[i] = v3Section{off: pos, length: l}
		pos += l
	}
	return secs
}

// saveV3 writes f in the revision-3 mappable layout.
func saveV3(w io.Writer, f *Frozen) error {
	nodes := uint64(f.NumNodes())
	edges := uint64(len(f.outEdges))
	secs := v3Layout(nodes, edges, uint64(len(f.arena.data)))

	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}

	var hdr [v3HeaderSize]byte
	copy(hdr[0:4], csrMagic)
	hdr[4] = csrRevArena
	binary.LittleEndian.PutUint64(hdr[8:16], nodes)
	binary.LittleEndian.PutUint64(hdr[16:24], edges)
	binary.LittleEndian.PutUint64(hdr[24:32], v3SectionCount)
	for i, s := range secs {
		binary.LittleEndian.PutUint64(hdr[32+16*i:], s.off)
		binary.LittleEndian.PutUint64(hdr[40+16*i:], s.length)
	}
	if _, err := cw.Write(hdr[:]); err != nil {
		return err
	}

	pos := uint64(v3HeaderSize)
	section := func(i int, emit func() error) error {
		if pad := secs[i].off - pos; pad > 0 {
			var zeros [8]byte
			if _, err := cw.Write(zeros[:pad]); err != nil {
				return err
			}
		}
		if err := emit(); err != nil {
			return err
		}
		pos = secs[i].off + secs[i].length
		return nil
	}
	emitters := []func() error{
		func() error { return writeUint32s(cw, f.arena.off) },
		func() error { _, err := cw.Write(f.arena.data); return err },
		func() error { return writeUint32s(cw, f.outOff) },
		func() error { return writeEdgeRecords(cw, f.outEdges) },
		func() error { return writeUint32s(cw, f.inOff) },
		func() error { return writeEdgeRecords(cw, f.inEdges) },
	}
	for i, emit := range emitters {
		if err := section(i, emit); err != nil {
			return err
		}
	}

	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], cw.crc)
	if _, err := bw.Write(crcBuf[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// writeEdgeRecords writes the 24-byte revision-3 edge records with the
// reserved word zeroed, so a given graph always produces identical
// bytes.
func writeEdgeRecords(w io.Writer, es []Edge) error {
	var buf [v3EdgeRecordSize]byte
	for _, e := range es {
		binary.LittleEndian.PutUint32(buf[0:4], uint32(e.To))
		binary.LittleEndian.PutUint32(buf[4:8], 0)
		binary.LittleEndian.PutUint64(buf[8:16], uint64(e.Count))
		binary.LittleEndian.PutUint64(buf[16:24], math.Float64bits(e.Plausibility))
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

// parseV3 decodes a snapshot held entirely in data; it is the only
// graph snapshot decoder. With zeroCopy set (and a compatible host —
// see canZeroCopy) the returned Frozen's arrays are views into data and
// the caller must keep data valid until the Frozen is Closed; otherwise
// everything is copied onto the heap and data may be discarded.
func parseV3(data []byte, zeroCopy bool) (*Frozen, error) {
	if len(data) >= 5 && (string(data[:4]) != csrMagic || data[4] != csrRevArena) {
		return nil, errBadSnapshotf("header %q is not PBC2 revision 3", data[:5])
	}
	if len(data) < v3HeaderSize+4 {
		return nil, errBadSnapshotf("%d bytes is too short for a revision-3 snapshot", len(data))
	}
	if data[5] != 0 || data[6] != 0 || data[7] != 0 {
		return nil, errBadSnapshotf("nonzero header padding")
	}
	nodes := binary.LittleEndian.Uint64(data[8:16])
	edges := binary.LittleEndian.Uint64(data[16:24])
	if nodes > maxSnapshotNodes {
		return nil, errBadSnapshotf("node count %d exceeds limit", nodes)
	}
	if edges > maxSnapshotEdges {
		return nil, errBadSnapshotf("edge count %d exceeds limit", edges)
	}
	if got := binary.LittleEndian.Uint64(data[24:32]); got != v3SectionCount {
		return nil, errBadSnapshotf("section count %d, want %d", got, v3SectionCount)
	}
	var secs [v3SectionCount]v3Section
	for i := range secs {
		secs[i].off = binary.LittleEndian.Uint64(data[32+16*i:])
		secs[i].length = binary.LittleEndian.Uint64(data[40+16*i:])
	}
	// The table must be the canonical one for (nodes, edges, label
	// bytes): recompute it and require byte equality, so sections cannot
	// overlap, stray outside the file, or hide slack space.
	if secs[1].length > uint64(len(data)) {
		return nil, errBadSnapshotf("label arena length %d exceeds file size", secs[1].length)
	}
	if want := v3Layout(nodes, edges, secs[1].length); secs != want {
		return nil, errBadSnapshotf("non-canonical section table")
	}
	end := secs[v3SectionCount-1].off + secs[v3SectionCount-1].length
	if uint64(len(data)) != end+4 {
		return nil, errBadSnapshotf("file size %d does not match layout (want %d)", len(data), end+4)
	}
	if crc32.ChecksumIEEE(data[:len(data)-4]) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, ErrChecksum
	}
	for i := 1; i < v3SectionCount; i++ {
		for _, b := range data[secs[i-1].off+secs[i-1].length : secs[i].off] {
			if b != 0 {
				return nil, errBadSnapshotf("nonzero padding before section %d", i)
			}
		}
	}

	sec := func(i int) []byte { return data[secs[i].off : secs[i].off+secs[i].length] }
	f := &Frozen{}
	if zeroCopy && canZeroCopy(data) {
		f.arena = labelArena{off: u32View(sec(0)), data: sec(1)}
		f.outOff = u32View(sec(2))
		f.outEdges = edgeView(sec(3))
		f.inOff = u32View(sec(4))
		f.inEdges = edgeView(sec(5))
		f.mapped = true
	} else {
		f.arena = labelArena{off: decodeUint32s(sec(0)), data: append([]byte(nil), sec(1)...)}
		f.outOff = decodeUint32s(sec(2))
		f.outEdges = decodeEdgeRecords(sec(3))
		f.inOff = decodeUint32s(sec(4))
		f.inEdges = decodeEdgeRecords(sec(5))
	}
	if err := f.arena.validate(); err != nil {
		return nil, err
	}
	n := f.NumNodes()
	if err := validateCSR(n, "out", f.outOff, sec(3)); err != nil {
		return nil, err
	}
	if err := validateCSR(n, "in", f.inOff, sec(5)); err != nil {
		return nil, err
	}
	if err := validateTranspose(f); err != nil {
		return nil, err
	}
	f.finish()
	for i := 1; i < len(f.sorted); i++ {
		if f.Label(f.sorted[i-1]) == f.Label(f.sorted[i]) {
			return nil, errBadSnapshotf("duplicate label %q", f.Label(f.sorted[i]))
		}
	}
	return f, nil
}

// canZeroCopy reports whether pointing Go slices at the raw snapshot
// bytes is sound on this host: the integers must be little-endian, the
// in-memory Edge struct must match the 24-byte disk record field for
// field, and the mapping base must be 8-byte aligned (mmap hands back
// page-aligned memory; an arbitrary caller-provided buffer may not be).
// When any guard fails, parseV3 silently decodes by copying instead —
// same graph, no zero-copy.
func canZeroCopy(data []byte) bool {
	if !hostLittleEndian() {
		return false
	}
	if unsafe.Sizeof(Edge{}) != v3EdgeRecordSize ||
		unsafe.Offsetof(Edge{}.To) != 0 ||
		unsafe.Offsetof(Edge{}.Count) != 8 ||
		unsafe.Offsetof(Edge{}.Plausibility) != 16 {
		return false
	}
	return uintptr(unsafe.Pointer(&data[0]))%8 == 0
}

func hostLittleEndian() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// u32View reinterprets b as a []uint32 without copying. b must be
// 4-byte aligned and a multiple of 4 long; parseV3's canonical-layout
// check guarantees both for section bytes.
func u32View(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// edgeView reinterprets b as a []Edge without copying. Only valid when
// canZeroCopy held for the enclosing mapping.
func edgeView(b []byte) []Edge {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*Edge)(unsafe.Pointer(&b[0])), len(b)/v3EdgeRecordSize)
}

func decodeUint32s(b []byte) []uint32 {
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

func decodeEdgeRecords(b []byte) []Edge {
	out := make([]Edge, len(b)/v3EdgeRecordSize)
	for i := range out {
		rec := b[v3EdgeRecordSize*i:]
		out[i] = Edge{
			To:           NodeID(binary.LittleEndian.Uint32(rec[0:4])),
			Count:        int64(binary.LittleEndian.Uint64(rec[8:16])),
			Plausibility: math.Float64frombits(binary.LittleEndian.Uint64(rec[16:24])),
		}
	}
	return out
}

// LoadMapped parses a snapshot held entirely in data — typically the
// bytes of a memory-mapped file — and returns its Frozen view. On a
// compatible host the view's label arena, offset tables and edge arrays
// alias data directly (zero-copy: load cost is page faults, the graph
// stays off the Go heap, and the page cache is shared across
// processes). An incompatible host or unaligned buffer falls back to
// the copying decode transparently.
//
// LoadMapped takes ownership of closer (which may be nil): it is closed
// immediately on error or when the fallback copied everything out, and
// otherwise retained and closed by Frozen.Close. Callers must not close
// it themselves, and when the returned view reports Mapped() they must
// keep every label string and edge slice obtained from it from
// outliving Frozen.Close.
func LoadMapped(data []byte, closer io.Closer) (*Frozen, error) {
	f, err := parseV3(data, true)
	if err != nil {
		if closer != nil {
			closer.Close()
		}
		return nil, err
	}
	if f.mapped && closer != nil {
		c := closer
		f.closer.Store(&c)
		return f, nil
	}
	if closer != nil {
		if err := closer.Close(); err != nil {
			return nil, err
		}
	}
	return f, nil
}

package kb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
)

// Binary snapshot format for Γ (little-endian):
//
//	magic    "PBKB"
//	version  uvarint (2)
//	strings  uvarint count, then per string: uvarint len + bytes
//	pairs    uvarint count, then per pair:
//	           uvarint xRef, uvarint yRef, uvarint n,
//	           uvarint evidence count, then per evidence:
//	             uvarint pattern, float64 pageScore, uvarint listLen,
//	             uvarint pos, byte negative, uvarint seq
//	co       uvarint count, then per entry:
//	           uvarint xRef, uvarint aRef, uvarint bRef, uvarint n
//	crc32    uint32 (IEEE, over everything before it)
//
// Strings are interned once and referenced by index.
const (
	kbMagic   = "PBKB"
	kbVersion = 2
)

var (
	// ErrBadKBSnapshot reports a structurally invalid Γ snapshot.
	ErrBadKBSnapshot = errors.New("kb: bad snapshot")
	// ErrKBChecksum reports Γ snapshot corruption.
	ErrKBChecksum = errors.New("kb: snapshot checksum mismatch")
)

type kbCRCWriter struct {
	w   *bufio.Writer
	crc uint32
}

func (cw *kbCRCWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p)
	return cw.w.Write(p)
}

func putUvarint(w io.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

// Save writes a checksummed binary snapshot of Γ, including evidence and
// co-occurrence statistics.
func (s *Store) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()

	// Intern all strings deterministically.
	refs := make(map[string]uint64)
	var strs []string
	intern := func(v string) uint64 {
		if id, ok := refs[v]; ok {
			return id
		}
		id := uint64(len(strs))
		refs[v] = id
		strs = append(strs, v)
		return id
	}
	type pairRow struct {
		x, y string
	}
	var pairs []pairRow
	xs := make([]string, 0, len(s.bySuper))
	for x := range s.bySuper {
		xs = append(xs, x)
	}
	sort.Strings(xs)
	for _, x := range xs {
		ys := make([]string, 0, len(s.bySuper[x]))
		for y := range s.bySuper[x] {
			ys = append(ys, y)
		}
		sort.Strings(ys)
		for _, y := range ys {
			intern(x)
			intern(y)
			pairs = append(pairs, pairRow{x, y})
		}
	}
	// Evidence can reference pairs without counts; include those too.
	evOnly := make([]Pair, 0)
	for p := range s.evidence {
		if s.bySuper[p.X][p.Y] == 0 {
			evOnly = append(evOnly, p)
		}
	}
	sort.Slice(evOnly, func(i, j int) bool {
		if evOnly[i].X != evOnly[j].X {
			return evOnly[i].X < evOnly[j].X
		}
		return evOnly[i].Y < evOnly[j].Y
	})
	for _, p := range evOnly {
		intern(p.X)
		intern(p.Y)
		pairs = append(pairs, pairRow{p.X, p.Y})
	}
	coKeys := make([]string, 0, len(s.co))
	for k := range s.co {
		coKeys = append(coKeys, k)
	}
	sort.Strings(coKeys)
	coParts := make([][3]string, len(coKeys))
	for i, k := range coKeys {
		var fields [3]string
		start, fi := 0, 0
		for j := 0; j < len(k) && fi < 2; j++ {
			if k[j] == '\x1f' {
				fields[fi] = k[start:j]
				start = j + 1
				fi++
			}
		}
		fields[2] = k[start:]
		for _, f := range fields {
			intern(f)
		}
		coParts[i] = fields
	}

	bw := bufio.NewWriter(w)
	cw := &kbCRCWriter{w: bw}
	if _, err := cw.Write([]byte(kbMagic)); err != nil {
		return err
	}
	if err := putUvarint(cw, kbVersion); err != nil {
		return err
	}
	if err := putUvarint(cw, uint64(len(strs))); err != nil {
		return err
	}
	for _, v := range strs {
		if err := putUvarint(cw, uint64(len(v))); err != nil {
			return err
		}
		if _, err := cw.Write([]byte(v)); err != nil {
			return err
		}
	}
	if err := putUvarint(cw, uint64(len(pairs))); err != nil {
		return err
	}
	var f64 [8]byte
	for _, pr := range pairs {
		if err := putUvarint(cw, refs[pr.x]); err != nil {
			return err
		}
		if err := putUvarint(cw, refs[pr.y]); err != nil {
			return err
		}
		if err := putUvarint(cw, uint64(s.bySuper[pr.x][pr.y])); err != nil {
			return err
		}
		evs := s.evidence[Pair{X: pr.x, Y: pr.y}]
		if err := putUvarint(cw, uint64(len(evs))); err != nil {
			return err
		}
		for _, ev := range evs {
			if err := putUvarint(cw, uint64(ev.Pattern)); err != nil {
				return err
			}
			binary.LittleEndian.PutUint64(f64[:], math.Float64bits(ev.PageScore))
			if _, err := cw.Write(f64[:]); err != nil {
				return err
			}
			if err := putUvarint(cw, uint64(ev.ListLen)); err != nil {
				return err
			}
			if err := putUvarint(cw, uint64(ev.Pos)); err != nil {
				return err
			}
			neg := byte(0)
			if ev.Negative {
				neg = 1
			}
			if _, err := cw.Write([]byte{neg}); err != nil {
				return err
			}
			if err := putUvarint(cw, uint64(ev.Seq)); err != nil {
				return err
			}
		}
	}
	if err := putUvarint(cw, uint64(len(coKeys))); err != nil {
		return err
	}
	for i, k := range coKeys {
		for _, f := range coParts[i] {
			if err := putUvarint(cw, refs[f]); err != nil {
				return err
			}
		}
		if err := putUvarint(cw, uint64(s.co[k])); err != nil {
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

// Load reads a snapshot written by Save. The evidence cap of the
// returned store is unlimited.
//
// The whole section is slurped and checksummed in one pass, then parsed
// from the byte slice — a snapshot-restore hot path (a delta build loads
// Γ twice: the final store and the checkpoint's boundary store), so the
// decoder avoids per-byte reader and CRC overhead.
func Load(r io.Reader) (*Store, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadKBSnapshot, err)
	}
	if len(data) < len(kbMagic)+4 {
		return nil, fmt.Errorf("%w: truncated", ErrBadKBSnapshot)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if string(body[:len(kbMagic)]) != kbMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadKBSnapshot, body[:len(kbMagic)])
	}
	if binary.LittleEndian.Uint32(tail) != crc32.ChecksumIEEE(body) {
		return nil, ErrKBChecksum
	}
	pos := len(kbMagic)
	getUv := func(what string) (uint64, error) {
		v, n := binary.Uvarint(body[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("%w: %s", ErrBadKBSnapshot, what)
		}
		pos += n
		return v, nil
	}
	version, err := getUv("version")
	if err != nil || version != kbVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrBadKBSnapshot, version, kbVersion)
	}
	nstrs, err := getUv("string count")
	if err != nil || nstrs > 1<<28 {
		return nil, fmt.Errorf("%w: string count", ErrBadKBSnapshot)
	}
	// Grow incrementally rather than pre-allocating nstrs entries: a
	// corrupt header must not be able to demand gigabytes up front.
	strs := make([]string, 0, minUint64(nstrs, 1<<16))
	for i := uint64(0); i < nstrs; i++ {
		ln, err := getUv("string length")
		if err != nil || ln > 1<<20 || uint64(len(body)-pos) < ln {
			return nil, fmt.Errorf("%w: string length", ErrBadKBSnapshot)
		}
		strs = append(strs, string(body[pos:pos+int(ln)]))
		pos += int(ln)
	}
	ref := func() (string, error) {
		id, err := getUv("string ref")
		if err != nil || id >= nstrs {
			return "", fmt.Errorf("%w: string ref", ErrBadKBSnapshot)
		}
		return strs[id], nil
	}
	s := NewStore(0)
	npairs, err := getUv("pair count")
	if err != nil || npairs > 1<<30 {
		return nil, fmt.Errorf("%w: pair count", ErrBadKBSnapshot)
	}
	// The loader holds the only reference, so the store is built by direct
	// field writes — no per-record locking. Save emits pairs grouped by
	// super and evidence lists already in canonical Seq order, so rows
	// land with one inner-map lookup and a plain append.
	curX := ""
	var curYs map[string]int64
	for i := uint64(0); i < npairs; i++ {
		x, err := ref()
		if err != nil {
			return nil, err
		}
		y, err := ref()
		if err != nil {
			return nil, err
		}
		n, err := getUv("pair count field")
		if err != nil {
			return nil, err
		}
		if n > 0 {
			if x != curX || curYs == nil {
				curX = x
				curYs = s.bySuper[x]
				if curYs == nil {
					curYs = make(map[string]int64)
					s.bySuper[x] = curYs
				}
			}
			if curYs[y] == 0 {
				s.npairs++
			}
			curYs[y] += int64(n)
			xs := s.bySub[y]
			if xs == nil {
				xs = make(map[string]int64)
				s.bySub[y] = xs
			}
			xs[x] += int64(n)
			s.superTotal[x] += int64(n)
			s.subTotal[y] += int64(n)
			s.total += int64(n)
		}
		nev, err := getUv("evidence count")
		if err != nil || nev > 1<<20 {
			return nil, fmt.Errorf("%w: evidence count", ErrBadKBSnapshot)
		}
		var evs []Evidence
		if nev > 0 {
			evs = make([]Evidence, 0, minUint64(nev, 1<<12))
		}
		for j := uint64(0); j < nev; j++ {
			var ev Evidence
			pat, err := getUv("evidence pattern")
			if err != nil {
				return nil, err
			}
			ev.Pattern = int(pat)
			if len(body)-pos < 8 {
				return nil, fmt.Errorf("%w: evidence score", ErrBadKBSnapshot)
			}
			ev.PageScore = math.Float64frombits(binary.LittleEndian.Uint64(body[pos:]))
			pos += 8
			ll, err := getUv("evidence listlen")
			if err != nil {
				return nil, err
			}
			ev.ListLen = int(ll)
			p, err := getUv("evidence pos")
			if err != nil {
				return nil, err
			}
			ev.Pos = int(p)
			if pos >= len(body) {
				return nil, fmt.Errorf("%w: evidence flag", ErrBadKBSnapshot)
			}
			ev.Negative = body[pos] == 1
			pos++
			seq, err := getUv("evidence seq")
			if err != nil {
				return nil, err
			}
			ev.Seq = int64(seq)
			// A corrupt seq order would silently break the delta-build
			// equivalence contract; fall back to sorted insertion.
			if len(evs) > 0 && ev.Seq < evs[len(evs)-1].Seq {
				k := sort.Search(len(evs), func(i int) bool { return evs[i].Seq > ev.Seq })
				evs = append(evs, Evidence{})
				copy(evs[k+1:], evs[k:])
				evs[k] = ev
				continue
			}
			evs = append(evs, ev)
		}
		if len(evs) > 0 {
			s.evidence[Pair{X: x, Y: y}] = evs
		}
	}
	nco, err := getUv("co count")
	if err != nil || nco > 1<<30 {
		return nil, fmt.Errorf("%w: co count", ErrBadKBSnapshot)
	}
	for i := uint64(0); i < nco; i++ {
		x, err := ref()
		if err != nil {
			return nil, err
		}
		a, err := ref()
		if err != nil {
			return nil, err
		}
		b, err := ref()
		if err != nil {
			return nil, err
		}
		n, err := getUv("co count field")
		if err != nil {
			return nil, err
		}
		if n > 0 && a != b {
			s.co[coKey(x, a, b)] += int64(n)
		}
	}
	return s, nil
}

func minUint64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

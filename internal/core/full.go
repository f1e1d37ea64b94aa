package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/extraction"
	"repro/internal/graph"
	"repro/internal/kb"
	"repro/internal/prob"
	"repro/internal/taxonomy"
)

// Full snapshot format: "PBFL", then two length-prefixed sections — the
// graph snapshot and the Γ snapshot (each carries its own checksum) —
// optionally followed by a third "PBCK" section holding the resumable
// BuildState (extraction checkpoint, taxonomy merge state, evidence
// model counts). Readers predating the third section stop after Γ;
// LoadFull treats its absence as a plain full snapshot.
const fullMagic = "PBFL"

// stateMagic heads the optional BuildState section.
const stateMagic = "PBCK"

// ErrBadFullSnapshot reports a structurally invalid full snapshot.
var ErrBadFullSnapshot = errors.New("core: bad full snapshot")

// SaveFull writes the taxonomy graph *and* Γ (counts, co-occurrence,
// evidence), so a reload supports evidence-based plausibility, not just
// the stored edge values.
func (p *Probase) SaveFull(w io.Writer) error {
	if p.Store == nil {
		return errors.New("core: no Γ to save; use Save for graph-only snapshots")
	}
	var gbuf, kbuf bytes.Buffer
	if err := p.Graph.Save(&gbuf); err != nil {
		return err
	}
	if err := p.Store.Save(&kbuf); err != nil {
		return err
	}
	if _, err := w.Write([]byte(fullMagic)); err != nil {
		return err
	}
	sections := []*bytes.Buffer{&gbuf, &kbuf}
	if s := p.State; s != nil && s.Checkpoint != nil && s.Taxonomy != nil && s.NB != nil {
		var sbuf bytes.Buffer
		if err := encodeBuildState(&sbuf, s); err != nil {
			return err
		}
		sections = append(sections, &sbuf)
	}
	var lenBuf [binary.MaxVarintLen64]byte
	for _, section := range sections {
		n := binary.PutUvarint(lenBuf[:], uint64(section.Len()))
		if _, err := w.Write(lenBuf[:n]); err != nil {
			return err
		}
		if _, err := w.Write(section.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// encodeBuildState writes the "PBCK" section body: the magic, then the
// three state parts, each length-prefixed so a reader can skip or
// validate them independently.
func encodeBuildState(w io.Writer, s *BuildState) error {
	if _, err := w.Write([]byte(stateMagic)); err != nil {
		return err
	}
	parts := []func(io.Writer) error{
		func(w io.Writer) error { return extraction.EncodeCheckpoint(w, s.Checkpoint) },
		func(w io.Writer) error { return taxonomy.EncodeState(w, s.Taxonomy) },
		s.NB.Encode,
	}
	var lenBuf [binary.MaxVarintLen64]byte
	for _, enc := range parts {
		var buf bytes.Buffer
		if err := enc(&buf); err != nil {
			return err
		}
		n := binary.PutUvarint(lenBuf[:], uint64(buf.Len()))
		if _, err := w.Write(lenBuf[:n]); err != nil {
			return err
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// decodeBuildState reads a "PBCK" section body written by
// encodeBuildState.
func decodeBuildState(data []byte) (*BuildState, error) {
	if len(data) < 4 || string(data[:4]) != stateMagic {
		return nil, fmt.Errorf("%w: build-state magic", ErrBadFullSnapshot)
	}
	r := bytes.NewReader(data[4:])
	next := func() (*bytes.Reader, error) {
		n, err := binary.ReadUvarint(r)
		if err != nil || n > uint64(r.Len()) {
			return nil, fmt.Errorf("%w: build-state part length", ErrBadFullSnapshot)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("%w: build-state part: %v", ErrBadFullSnapshot, err)
		}
		return bytes.NewReader(buf), nil
	}
	s := &BuildState{}
	part, err := next()
	if err != nil {
		return nil, err
	}
	if s.Checkpoint, err = extraction.DecodeCheckpoint(part); err != nil {
		return nil, err
	}
	if part, err = next(); err != nil {
		return nil, err
	}
	if s.Taxonomy, err = taxonomy.DecodeState(part); err != nil {
		return nil, err
	}
	if part, err = next(); err != nil {
		return nil, err
	}
	if s.NB, err = prob.DecodeNaiveBayes(part); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadFull reads a snapshot written by SaveFull. The evidence model is
// rebuilt untrained (training needs the oracle); plausibility queries use
// the stored evidence through the noisy-or with uninformative per-
// evidence probabilities, falling back to stored edge values and
// reachability.
func LoadFull(r io.Reader) (*Probase, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFullSnapshot, err)
	}
	if string(magic) != fullMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadFullSnapshot, magic)
	}
	readSection := func() ([]byte, error) {
		br := byteReaderAdapter{r}
		n, err := binary.ReadUvarint(br)
		if errors.Is(err, io.EOF) {
			// No more sections: clean end of snapshot.
			return nil, io.EOF
		}
		if err != nil || n > 1<<32 {
			return nil, fmt.Errorf("%w: section length", ErrBadFullSnapshot)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("%w: section body: %v", ErrBadFullSnapshot, err)
		}
		return buf, nil
	}
	gsec, err := readSection()
	if err != nil {
		return nil, err
	}
	ksec, err := readSection()
	if err != nil {
		return nil, err
	}
	// Optional third section: the resumable build state. A clean EOF here
	// is an old-style two-section snapshot, not an error.
	var state *BuildState
	if ssec, serr := readSection(); serr == nil {
		if state, err = decodeBuildState(ssec); err != nil {
			return nil, err
		}
	} else if !errors.Is(serr, io.EOF) {
		return nil, serr
	}
	g, err := graph.LoadFrozen(bytes.NewReader(gsec))
	if err != nil {
		return nil, err
	}
	store, err := kb.Load(bytes.NewReader(ksec))
	if err != nil {
		return nil, err
	}
	typ, err := prob.NewTypicality(g)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot is not a DAG: %w", err)
	}
	// With a saved build state the oracle-trained count tables come back
	// verbatim, so plausibility after reload equals plausibility before —
	// and a DeltaBuild from this snapshot advances the real model instead
	// of an uninformative one. Without one, fall back to the historical
	// unknown-oracle retrain.
	var model *prob.Model
	if state != nil {
		model = prob.NewModel(state.NB.Clone(), store)
	} else {
		model = prob.Train(store, func(x, y string) (bool, bool) { return false, false })
	}
	return &Probase{
		Store:  store,
		Graph:  g,
		Senses: sensesFromGraph(g),
		State:  state,
		typ:    typ,
		model:  model,
	}, nil
}

// byteReaderAdapter adds ReadByte on top of an io.Reader for
// binary.ReadUvarint without buffering past the varint.
type byteReaderAdapter struct{ r io.Reader }

func (b byteReaderAdapter) ReadByte() (byte, error) {
	var buf [1]byte
	_, err := io.ReadFull(b.r, buf[:])
	return buf[0], err
}

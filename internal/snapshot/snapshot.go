// Package snapshot loads taxonomy snapshots produced by probase-build.
// Both snapshot flavours are accepted and auto-detected by magic:
// graph-only ("PBC2", written by Probase.Save) and full ("PBFL",
// written by Probase.SaveFull, carrying Γ alongside the graph). The loader is
// shared by every binary that consumes snapshots (probase-query,
// probase-serve) so the flavour-sniffing logic lives in exactly one
// place.
//
// Two file entry points exist: Open decodes the snapshot onto the heap,
// OpenMapped memory-maps it and serves "PBC2" graphs zero-copy out of
// the mapping (falling back to decoding for full snapshots). The byte-level format specifications live in
// FORMATS.md at the repository root.
package snapshot

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mmap"
)

// fullMagic marks a full (graph + Γ) snapshot; anything else is handed
// to the graph-only loader, which validates its own magic.
const fullMagic = "PBFL"

// Open reads the snapshot file at path, auto-detecting its flavour.
func Open(path string) (*core.Probase, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pb, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", path, err)
	}
	return pb, nil
}

// OpenMapped memory-maps the snapshot file at path and serves the graph
// directly out of the mapping when the format allows it (a graph-only
// "PBC2" snapshot on a little-endian host): loading costs page faults
// instead of a full decode, the arrays stay off the Go heap, and
// replicas on one machine share the page cache. Full "PBFL" snapshots
// transparently fall back to the copying loader, so -mmap is always
// safe to request.
//
// The returned Probase owns the mapping; call Probase.Close after the
// last query has drained. Probase.Mapped reports whether the zero-copy
// path was actually taken.
func OpenMapped(path string) (*core.Probase, error) {
	m, err := mmap.Open(path)
	if err != nil {
		return nil, err
	}
	data := m.Bytes()
	if len(data) >= 4 && string(data[:4]) == fullMagic {
		// Full snapshots interleave Γ with the graph and are decoded
		// record by record — nothing to map. Release the mapping and take
		// the streaming path.
		m.Close()
		return Open(path)
	}
	magic := ""
	if len(data) >= 4 {
		magic = string(data[:4])
	}
	g, err := graph.LoadMapped(data, m) // takes ownership of m
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", path, err)
	}
	pb, err := core.FromFrozen(g)
	if err != nil {
		g.Close()
		return nil, fmt.Errorf("snapshot %s: %w", path, err)
	}
	pb.Format = magic
	return pb, nil
}

// Load reads a snapshot from r, auto-detecting its flavour. The magic
// bytes are sniffed through a buffered reader that then hands the whole
// stream (sniffed bytes included) to the flavour's loader, so r can be
// any stream — a pipe or a network body, not just a seekable file.
func Load(r io.Reader) (*core.Probase, error) {
	br := bufio.NewReader(r)
	peeked, err := br.Peek(4)
	if err != nil {
		// A short read here means the input cannot be a snapshot at all
		// (every format starts with a 4-byte magic) — say so instead of
		// surfacing a bare EOF from the middle of the sniffing machinery.
		return nil, fmt.Errorf("%w: input is %d bytes, too short to be a snapshot (want at least a 4-byte magic)",
			graph.ErrBadSnapshot, len(peeked))
	}
	// Peek returns a view into the bufio buffer, which the load below
	// overwrites — copy the magic out before reading on.
	magic := string(peeked)
	var pb *core.Probase
	if magic == fullMagic {
		pb, err = core.LoadFull(br)
	} else {
		pb, err = core.Load(br)
	}
	if err != nil {
		return nil, err
	}
	// Record which on-disk format the snapshot used; the serving layer
	// surfaces it on /v1/healthz as part of the snapshot identity.
	pb.Format = magic
	return pb, nil
}

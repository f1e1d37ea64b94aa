package graph

import (
	"bytes"
	"testing"
)

// snapBytes returns f's snapshot bytes.
func snapBytes(t *testing.T, f *Frozen) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestThawRefreezeRoundTrip: NewBuilderFrom over a frozen graph, then a
// re-freeze, must reproduce the snapshot byte for byte — same nodes,
// same edge counts, and the same plausibility bits. Delta builds thaw
// the previous taxonomy to extend it, so any loss here would silently
// corrupt every incremental snapshot.
func TestThawRefreezeRoundTrip(t *testing.T) {
	s := benchGraph()
	want := snapBytes(t, s.Freeze())

	fz, err := LoadFrozen(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	thawed := NewBuilderFrom(fz)
	if len(thawed.labels) != fz.NumNodes() {
		t.Fatalf("thaw changed shape: %d/%d nodes", len(thawed.labels), fz.NumNodes())
	}
	if got := snapBytes(t, thawed.Freeze()); !bytes.Equal(got, want) {
		t.Fatal("thaw -> refreeze produced different snapshot bytes")
	}
	// Spot-check that plausibility survived bit for bit through the
	// Builder representation, not only through the re-encoded bytes.
	for id := 0; id < fz.NumNodes(); id++ {
		a, b := fz.Children(NodeID(id)), thawed.Children(NodeID(id))
		if len(a) != len(b) {
			t.Fatalf("node %d: %d vs %d children", id, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d edge %d: %+v vs %+v", id, i, a[i], b[i])
			}
		}
	}
}

// TestThawFromMappedSourceOutlivesMapping: a Builder thawed from a
// memory-mapped Frozen must stay valid after the mapping closes. Mapped
// labels are zero-copy views into the arena bytes; NewBuilderFrom must
// copy them out, or every label in the thawed Builder dangles the
// moment the base snapshot's mmap is released.
func TestThawFromMappedSourceOutlivesMapping(t *testing.T) {
	s := benchGraph()
	want := snapBytes(t, s.Freeze())

	// Give LoadMapped its own buffer so we can poison it afterwards and
	// prove the thawed Builder holds no views into it.
	data := append([]byte(nil), want...)
	fz, err := LoadMapped(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !fz.Mapped() {
		t.Skip("snapshot did not map zero-copy on this host")
	}
	thawed := NewBuilderFrom(fz)
	if err := fz.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xFF
	}

	if got, wantLbl := thawed.Label(thawed.Lookup("root0")), "root0"; got != wantLbl {
		t.Fatalf("label after unmap = %q, want %q", got, wantLbl)
	}
	if got := snapBytes(t, thawed.Freeze()); !bytes.Equal(got, want) {
		t.Fatal("thaw from mapped source lost data after unmap")
	}
}

package extraction

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/hearst"
)

func corpusInputs(t testing.TB, sentences int, seed int64) []Input {
	t.Helper()
	w := corpus.DefaultWorld(1)
	c := corpus.NewGenerator(w, corpus.GenConfig{Sentences: sentences, Seed: seed}).Generate()
	inputs := make([]Input, len(c.Sentences))
	for i, s := range c.Sentences {
		inputs[i] = Input{Text: s.Text, PageScore: s.PageScore}
	}
	return inputs
}

func storeBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkpointBytes(t *testing.T, cp *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResumeEquivalentToFullRun is the load-bearing property behind
// incremental builds: running extraction over a base corpus, then
// resuming over the remainder, must reproduce the from-scratch run over
// the concatenated corpus exactly — Γ byte-for-byte (counts,
// co-occurrence and seq-ordered evidence), the group records, and the
// follow-up checkpoint. The chunked fold makes this hold by
// construction: both runs settle the fixpoint at the same absolute
// sentence-index boundaries, and the checkpoint replays the un-settled
// tail. Split points cover an early cut, cuts straddling chunk
// boundaries, an exact boundary, and a tiny 1%-style delta.
func TestResumeEquivalentToFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-scale equivalence probe")
	}
	inputs := corpusInputs(t, 4000, 42)
	cfg := DefaultConfig()
	cfg.Workers = 4

	full := Run(inputs, cfg)
	fullStore := storeBytes(t, full)
	fullCp := checkpointBytes(t, full.Checkpoint)

	for _, split := range []int{400, 1024, 2000, 3600, 3960} {
		base := Run(inputs[:split], cfg)

		// Round-trip the checkpoint through its binary form so the test
		// also proves serialisation loses nothing.
		cp, err := DecodeCheckpoint(bytes.NewReader(checkpointBytes(t, base.Checkpoint)))
		if err != nil {
			t.Fatalf("split %d: decode: %v", split, err)
		}

		delta, err := Resume(cp, inputs[split:], cfg)
		if err != nil {
			t.Fatalf("split %d: resume: %v", split, err)
		}

		if got := storeBytes(t, delta); !bytes.Equal(got, fullStore) {
			t.Errorf("split %d: resumed Γ differs from full-run Γ (%d vs %d bytes)",
				split, len(got), len(fullStore))
		}
		if !reflect.DeepEqual(delta.Groups, full.Groups) {
			t.Errorf("split %d: group records diverged: resumed %d groups, full %d",
				split, len(delta.Groups), len(full.Groups))
		}
		if got := checkpointBytes(t, delta.Checkpoint); !bytes.Equal(got, fullCp) {
			t.Errorf("split %d: follow-up checkpoints diverged (pending %d vs %d, groups %d vs %d, tail %d vs %d)",
				split, len(delta.Checkpoint.Pending), len(full.Checkpoint.Pending),
				len(delta.Checkpoint.Groups), len(full.Checkpoint.Groups),
				len(delta.Checkpoint.Tail), len(full.Checkpoint.Tail))
		}
		if delta.Parsed != full.Parsed || delta.PartOf != full.PartOf {
			t.Errorf("split %d: counters diverged: parsed %d/%d, partof %d/%d",
				split, delta.Parsed, full.Parsed, delta.PartOf, full.PartOf)
		}
	}
}

// TestResumeLeavesBaseStoreIntact: a base build keeps serving while its
// checkpoint seeds delta builds, so Resume must not mutate it.
func TestResumeLeavesBaseStoreIntact(t *testing.T) {
	inputs := corpusInputs(t, 1500, 3)
	cfg := DefaultConfig()
	base := Run(inputs[:1200], cfg)
	before := checkpointBytes(t, base.Checkpoint)
	if _, err := Resume(base.Checkpoint, inputs[1200:], cfg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, checkpointBytes(t, base.Checkpoint)) {
		t.Fatal("Resume mutated the base checkpoint")
	}
}

// TestResumeDirtyRootsCoverDelta checks that DirtyRoots is a sound
// over-approximation: every group that differs from the base build's
// record set must have its root listed.
func TestResumeDirtyRootsCoverDelta(t *testing.T) {
	inputs := corpusInputs(t, 2000, 7)
	cfg := DefaultConfig()
	cfg.Workers = 2
	split := 1800

	base := Run(inputs[:split], cfg)
	baseGroups := make(map[string]int) // fingerprint of base group records per root
	for _, g := range base.Groups {
		baseGroups[g.Super] += len(g.Subs) + g.Order
	}

	delta, err := Resume(base.Checkpoint, inputs[split:], cfg)
	if err != nil {
		t.Fatal(err)
	}
	dirty := make(map[string]bool, len(delta.DirtyRoots))
	for _, r := range delta.DirtyRoots {
		dirty[r] = true
	}
	nextGroups := make(map[string]int)
	for _, g := range delta.Groups {
		nextGroups[g.Super] += len(g.Subs) + g.Order
	}
	for root, fp := range nextGroups {
		if fp != baseGroups[root] && !dirty[root] {
			t.Errorf("root %q changed (fp %d -> %d) but is not in DirtyRoots", root, baseGroups[root], fp)
		}
	}
	if len(delta.DirtyRoots) == 0 {
		t.Fatal("delta produced no dirty roots; probe corpus too small")
	}
}

func TestResumeRejectsMismatchedChunkSize(t *testing.T) {
	inputs := corpusInputs(t, 300, 5)
	cfg := DefaultConfig()
	cfg.ChunkSize = 128
	base := Run(inputs, cfg)
	cfg.ChunkSize = 256
	if _, err := Resume(base.Checkpoint, nil, cfg); err == nil {
		t.Fatal("chunk-size mismatch accepted")
	}
}

// TestRehydrateRestoresDerivedReadings: a state rebuilt from its
// checkpointed form carries the same canonical readings as a fresh parse,
// and those are the readings the canonicalisers give.
func TestRehydrateRestoresDerivedReadings(t *testing.T) {
	for _, text := range []string{
		"animals other than dogs such as cats",
		"companies such as IBM, Nokia, Proctor and Gamble",
		"representatives in North America, Europe, Australia, Japan, China, and other countries",
	} {
		m, ok := hearst.Parse(text)
		if !ok {
			t.Fatalf("%q: parse failed", text)
		}
		st := newSentenceState(41, text, m, 0.5)
		st.super, st.superDone = st.superKeys[0], true
		st.status[0] = posAccepted
		st.accepted = append(st.accepted, st.chunks[0]...)

		got, err := rehydrate(dehydrate(st))
		if err != nil {
			t.Fatalf("%q: rehydrate: %v", text, err)
		}
		if !reflect.DeepEqual(got, st) {
			t.Errorf("%q: rehydrated state differs:\n got %+v\nwant %+v", text, got, st)
		}
		for i, s := range m.Supers {
			if got.superKeys[i] != CanonicalSuper(s) {
				t.Errorf("%q: super key %d = %q, want %q", text, i, got.superKeys[i], CanonicalSuper(s))
			}
		}
		for j, seg := range m.Segments {
			chunks := segChunks(seg)
			if !reflect.DeepEqual(got.chunks[j], chunks) || !reflect.DeepEqual(got.joins[j], prefixJoins(chunks)) {
				t.Errorf("%q: segment %d readings %v / %v, want %v / %v",
					text, j, got.chunks[j], got.joins[j], chunks, prefixJoins(chunks))
			}
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	cp := &Checkpoint{
		NumInputs: 17,
		ChunkSize: 8,
		Parsed:    9,
		PartOf:    2,
		Groups: []Group{
			{Super: "animal", Subs: []string{"cat", "dog"}, Order: 3},
			{Super: "company", Subs: []string{"IBM"}, Order: 9},
		},
		Pending: []PendingSentence{{
			Index:     12,
			Text:      "animals such as cats and dogs are cute",
			PageScore: 0.25,
			Super:     "animal",
			SuperDone: true,
			Status:    []uint8{1, 0},
			Accepted:  []string{"cat"},
		}},
		Tail:       []Input{{Text: "pets such as hamsters", PageScore: 0.5}},
		RootHashes: map[string]uint64{"animal": 0xdeadbeef, "company": 7},
	}
	data := checkpointBytes(t, cp)
	got, err := DecodeCheckpoint(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, cp)
	}
	if _, err := DecodeCheckpoint(bytes.NewReader(data[:len(data)-3])); err == nil {
		t.Fatal("truncated checkpoint decoded without error")
	}
}

func TestCheckpointRoundTripWithStore(t *testing.T) {
	inputs := corpusInputs(t, 1200, 9)
	res := Run(inputs, DefaultConfig())
	if res.Checkpoint.Store == nil {
		t.Fatal("run produced checkpoint without boundary store")
	}
	data := checkpointBytes(t, res.Checkpoint)
	got, err := DecodeCheckpoint(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(checkpointBytes(t, got), data) {
		t.Fatal("checkpoint re-encode differs after round trip")
	}
}

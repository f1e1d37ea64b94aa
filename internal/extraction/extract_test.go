package extraction

import (
	"testing"

	"repro/internal/hearst"
	"repro/internal/kb"
)

func TestCanonicalSuper(t *testing.T) {
	tests := []struct{ in, want string }{
		{"Tropical Countries", "tropical country"},
		{"animals", "animal"},
		{"IT companies", "it company"},
		{"company", "company"},
	}
	for _, tt := range tests {
		if got := CanonicalSuper(tt.in); got != tt.want {
			t.Errorf("CanonicalSuper(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestCanonicalSub(t *testing.T) {
	tests := []struct{ in, want string }{
		{"cats", "cat"},
		{"steam turbines", "steam turbine"},
		{"New York", "New York"},
		{"Gone with the Wind", "Gone with the Wind"},
		{"Proctor and Gamble", "Proctor and Gamble"},
		{"  IBM ", "IBM"},
		{"oak", "oak"},
	}
	for _, tt := range tests {
		if got := CanonicalSub(tt.in); got != tt.want {
			t.Errorf("CanonicalSub(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

// seedStore builds a Γ with animal/dog knowledge mirroring the paper's
// Example 2(1) discussion.
func seedStore() *kb.Store {
	s := kb.NewStore(0)
	for i := 0; i < 20; i++ {
		s.Add("animal", "cat", 1)
		s.Add("animal", "dog", 1)
	}
	s.Add("animal", "rabbit", 5)
	s.Add("dog", "poodle", 3) // dogs exist as a super, but never with cat
	return s
}

func TestDetectSuperPrefersSemanticReading(t *testing.T) {
	cfg := DefaultConfig()
	r := &resolver{cfg: cfg.withDefaults(), store: seedStore()}
	m, ok := hearst.Parse("animals other than dogs such as cats")
	if !ok {
		t.Fatal("parse failed")
	}
	st := newSentenceState(0, m.Raw, m, 0)
	super, ok := r.detectSuper(st)
	if !ok {
		t.Fatal("detectSuper undecided despite strong evidence")
	}
	if super != "animal" {
		t.Errorf("super = %q, want animal", super)
	}
}

func TestDetectSuperUndecidedOnEmptyStore(t *testing.T) {
	cfg := DefaultConfig()
	r := &resolver{cfg: cfg.withDefaults(), store: kb.NewStore(0)}
	m, _ := hearst.Parse("animals other than dogs such as cats")
	st := newSentenceState(0, m.Raw, m, 0)
	if _, ok := r.detectSuper(st); ok {
		t.Error("detectSuper decided with no knowledge")
	}
}

func TestDetectSuperModifierStripping(t *testing.T) {
	// "domestic animals" is unknown, but stripping the modifier reaches
	// "animal", which vouches for cats (Section 2.3.2).
	cfg := DefaultConfig()
	r := &resolver{cfg: cfg.withDefaults(), store: seedStore()}
	m, ok := hearst.Parse("domestic animals other than dogs such as cats")
	if !ok {
		t.Fatal("parse failed")
	}
	st := newSentenceState(0, m.Raw, m, 0)
	super, ok := r.detectSuper(st)
	if !ok {
		t.Fatal("detectSuper undecided")
	}
	if super != "domestic animal" {
		t.Errorf("super = %q, want domestic animal", super)
	}
}

// segmentChunksOf runs segmentChunks over bare chunks.
func segmentChunksOf(r *resolver, chunks []string, x string, accepted []string) ([]string, bool) {
	return r.segmentChunks(chunks, prefixJoins(chunks), x, accepted)
}

func TestSegmentChunksCompoundName(t *testing.T) {
	s := kb.NewStore(0)
	for i := 0; i < 10; i++ {
		s.Add("company", "Proctor and Gamble", 1)
		s.Add("company", "IBM", 1)
		s.AddCo("company", "IBM", "Proctor and Gamble", 1)
	}
	cfg := DefaultConfig()
	r := &resolver{cfg: cfg.withDefaults(), store: s}
	reading, ok := segmentChunksOf(r, []string{"Proctor", "Gamble"}, "company", []string{"IBM"})
	if !ok {
		t.Fatal("undecided despite evidence")
	}
	if len(reading) != 1 || reading[0] != "Proctor and Gamble" {
		t.Errorf("reading = %v, want the compound name", reading)
	}
}

func TestSegmentChunksSplitsRealLists(t *testing.T) {
	s := kb.NewStore(0)
	for i := 0; i < 10; i++ {
		s.Add("animal", "cat", 1)
		s.Add("animal", "dog", 1)
		s.AddCo("animal", "cat", "dog", 1)
	}
	cfg := DefaultConfig()
	r := &resolver{cfg: cfg.withDefaults(), store: s}
	reading, ok := segmentChunksOf(r, []string{"cat", "dog"}, "animal", nil)
	if !ok {
		t.Fatal("undecided despite evidence")
	}
	if len(reading) != 2 || reading[0] != "cat" || reading[1] != "dog" {
		t.Errorf("reading = %v, want [cat dog]", reading)
	}
}

func TestSegmentChunksDefaults(t *testing.T) {
	cfg := DefaultConfig()
	r := &resolver{cfg: cfg.withDefaults(), store: kb.NewStore(0)}
	// With an empty Γ and capitalised fragments, the compound-name
	// default applies (Downey-style association).
	reading, ok := segmentChunksOf(r, []string{"Proctor", "Gamble"}, "company", nil)
	if !ok || len(reading) != 1 || reading[0] != "Proctor and Gamble" {
		t.Errorf("reading = %v ok=%v, want compound default", reading, ok)
	}
	// Common-noun chunks with no evidence stay undecided.
	if _, ok := segmentChunksOf(r, []string{"cat", "dog"}, "animal", nil); ok {
		t.Error("decided common-noun split with empty Γ")
	}
}

func TestResolveScopeRejectsTrailingJunk(t *testing.T) {
	s := kb.NewStore(0)
	for i := 0; i < 5; i++ {
		s.Add("country", "China", 1)
		s.Add("country", "Japan", 1)
		s.Add("country", "Australia", 1)
	}
	cfg := DefaultConfig()
	r := &resolver{cfg: cfg.withDefaults(), store: s}
	m, ok := hearst.Parse("representatives in North America, Europe, Australia, Japan, China, and other countries")
	if !ok {
		t.Fatal("parse failed")
	}
	st := newSentenceState(0, m.Raw, m, 0)
	d := r.resolve(0, st)
	if !d.done {
		t.Fatalf("sentence not finalized: %+v", d)
	}
	accepted := map[string]bool{}
	for _, a := range d.accepts {
		for _, y := range a.reading {
			accepted[y] = true
		}
	}
	for _, want := range []string{"China", "Japan", "Australia"} {
		if !accepted[want] {
			t.Errorf("%s not accepted: %v", want, accepted)
		}
	}
	for _, junk := range []string{"Europe", "North America"} {
		if accepted[junk] {
			t.Errorf("junk %s accepted", junk)
		}
	}
}

func TestResolveFallbackFirstPosition(t *testing.T) {
	// Empty Γ: only the well-formed first candidate is accepted
	// (Observation 1), the rest stays undecided.
	cfg := DefaultConfig()
	r := &resolver{cfg: cfg.withDefaults(), store: kb.NewStore(0)}
	m, ok := hearst.Parse("companies such as IBM, Nokia, Samsung")
	if !ok {
		t.Fatal("parse failed")
	}
	st := newSentenceState(0, m.Raw, m, 0)
	d := r.resolve(0, st)
	if d.done {
		t.Error("sentence should stay pending")
	}
	if len(d.accepts) != 1 || d.accepts[0].pos != 0 || d.accepts[0].reading[0] != "IBM" {
		t.Errorf("accepts = %+v, want IBM at position 0", d.accepts)
	}
}

func TestResolveFallbackRejectsMalformedFirst(t *testing.T) {
	cfg := DefaultConfig()
	r := &resolver{cfg: cfg.withDefaults(), store: kb.NewStore(0)}
	m, ok := hearst.Parse("companies such as Proctor and Gamble")
	if !ok {
		t.Fatal("parse failed")
	}
	st := newSentenceState(0, m.Raw, m, 0)
	d := r.resolve(0, st)
	if len(d.accepts) != 0 {
		t.Errorf("ambiguous first candidate accepted with empty Γ: %+v", d.accepts)
	}
	if d.done {
		t.Error("sentence should stay pending")
	}
}

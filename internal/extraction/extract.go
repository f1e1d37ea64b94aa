package extraction

import (
	"math"
	"strings"
	"unicode"

	"repro/internal/hearst"
	"repro/internal/kb"
	"repro/internal/nlp"
)

// Input is one corpus sentence with its page authority score.
type Input struct {
	Text      string
	PageScore float64
}

// posState is the lifecycle of one candidate sub-concept position.
type posState int8

const (
	posUndecided posState = iota
	posAccepted
	posRejected
)

// sentenceState tracks a parsed sentence across rounds.
type sentenceState struct {
	index     int    // global corpus index of the sentence (resume-stable)
	text      string // raw sentence, kept for checkpointing pending states
	match     hearst.Match
	pageScore float64

	// Canonical readings of the match, derived once by newSentenceState
	// and read-only afterwards: every round reads them, none recomputes.
	superKeys []string   // CanonicalSuper of each candidate in match.Supers
	chunks    [][]string // segChunks of each segment
	joins     [][]string // prefixJoins of each segment's chunks

	super     string // canonical super-concept key, once detected
	superDone bool
	status    []posState
	accepted  []string // all accepted canonical subs, in acceptance order
	done      bool
}

// newSentenceState is the one constructor of a sentence's state: a fresh
// parse and a checkpoint rehydration both go through it, so the derived
// readings are always present.
func newSentenceState(index int, text string, m hearst.Match, pageScore float64) *sentenceState {
	st := &sentenceState{
		index:     index,
		text:      text,
		match:     m,
		pageScore: pageScore,
		superKeys: make([]string, len(m.Supers)),
		chunks:    make([][]string, len(m.Segments)),
		joins:     make([][]string, len(m.Segments)),
		status:    make([]posState, len(m.Segments)),
	}
	for i, s := range m.Supers {
		st.superKeys[i] = CanonicalSuper(s)
	}
	for i, seg := range m.Segments {
		chunks := segChunks(seg)
		joins := prefixJoins(chunks)
		if len(chunks) == 1 && joins[0] == chunks[0] {
			joins = chunks // most segments: one reading, kept once
		}
		st.chunks[i], st.joins[i] = chunks, joins
	}
	return st
}

// evidenceSeq packs a sentence's global corpus index, the 1-based segment
// position, and the sub-index within the position's reading into the
// canonical evidence ordering key. The key is a pure function of *where*
// the evidence sits in the corpus, never of when the fixpoint discovered
// it, so evidence lists (and the kept set under the per-pair cap) come out
// identical whether the corpus was processed in one run or as base+delta.
func evidenceSeq(index, pos, sub int) int64 {
	if pos > 4095 {
		pos = 4095
	}
	if sub > 511 {
		sub = 511
	}
	return int64(index+1)<<21 | int64(pos)<<9 | int64(sub)
}

// CanonicalSuper maps a super-concept surface form to its Γ key:
// lower-case, singular head ("Tropical Countries" -> "tropical country").
func CanonicalSuper(s string) string {
	return nlp.SingularizePhrase(nlp.Normalize(s))
}

// CanonicalSub maps a sub-concept surface form to its Γ key. The head
// (final) word decides: a lower-case plural head marks a concept-like
// phrase, which is lower-cased and singularised so it meets the matching
// super-concept key ("IT companies" -> "it company", "steam turbines" ->
// "steam turbine", "cats" -> "cat"). Everything else — named entities
// with a capitalised head ("New York", "Gone with the Wind") and singular
// common nouns — keeps its surface form (named entities) or lower-cases
// (common nouns).
func CanonicalSub(s string) string {
	s = nlp.CollapseSpaces(s)
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return s
	}
	head := fields[len(fields)-1]
	headCap := unicode.IsUpper([]rune(head)[0])
	if !headCap {
		lh := strings.ToLower(head)
		if nlp.IsPluralWord(lh) {
			return nlp.SingularizePhrase(nlp.Normalize(s))
		}
	}
	if hasCapitalizedWord(s) {
		return s
	}
	return nlp.Normalize(s)
}

func hasCapitalizedWord(s string) bool {
	for _, f := range strings.Fields(s) {
		r := []rune(f)[0]
		if unicode.IsUpper(r) {
			return true
		}
	}
	return false
}

// segChunks returns the canonical delimiter-separated chunks of a segment
// ("IBM, Nokia, Proctor and Gamble"'s last element has chunks
// {Proctor, Gamble}); unambiguous segments have a single chunk.
func segChunks(seg hearst.Segment) []string {
	if !seg.Ambiguous() {
		return []string{CanonicalSub(seg.Whole)}
	}
	out := make([]string, len(seg.Parts))
	for i, p := range seg.Parts {
		out[i] = CanonicalSub(p)
	}
	return out
}

// prefixJoins lists the candidate occupants of the segment's position:
// every prefix of its chunks rejoined with "and". For {Proctor, Gamble}
// these are "Proctor" and "Proctor and Gamble" — exactly the two readings
// Section 2.3.3 compares.
func prefixJoins(chunks []string) []string {
	out := make([]string, len(chunks))
	for m := range chunks {
		out[m] = CanonicalSub(strings.Join(chunks[:m+1], " and "))
	}
	return out
}

// decision is the outcome of resolving one sentence in the map phase; it
// is applied to Γ in the single-threaded reduce phase.
type decision struct {
	idx      int
	super    string   // canonical super (set when super detection succeeded)
	accepts  []accept // newly accepted positions
	rejects  []int    // newly rejected positions
	done     bool     // sentence fully decided
	progress bool     // anything changed this round
}

type accept struct {
	pos     int
	reading []string // canonical sub-concepts occupying this position
}

// resolver bundles Γ and the thresholds during one round's map phase.
type resolver struct {
	cfg   Config
	store *kb.Store
}

// pSub is the smoothed p(y|x) with the modifier-stripping fallback of
// Section 2.3.2: when x is unknown, the more general concept obtained by
// stripping x's leading modifier vouches for it at a discount.
func (r *resolver) pSub(y, x string) float64 {
	p := r.store.PYgivenX(y, x)
	if stripped := nlp.StripModifier(x); stripped != x {
		if q := r.cfg.ModifierDiscount * r.store.PYgivenX(y, stripped); q > p {
			p = q
		}
	}
	if p < r.cfg.Epsilon {
		p = r.cfg.Epsilon
	}
	return p
}

// pSuper is the smoothed prior p(x), with the same fallback.
func (r *resolver) pSuper(x string) float64 {
	p := r.store.PX(x)
	if stripped := nlp.StripModifier(x); stripped != x {
		if q := r.cfg.ModifierDiscount * r.store.PX(stripped); q > p {
			p = q
		}
	}
	if p < r.cfg.Epsilon {
		p = r.cfg.Epsilon
	}
	return p
}

// bestSegCount returns the highest n(x, c) over the candidate occupants
// of segment j's position — the prefix joins plus the individual chunks
// ("..., Proctor and Gamble and IBM" is anchored by IBM, which is a chunk
// but not a prefix join). Used by the scope search.
func (r *resolver) bestSegCount(st *sentenceState, j int, x string) int64 {
	var best int64
	for _, c := range st.joins[j] {
		if n := r.store.Count(x, c); n > best {
			best = n
		}
	}
	for _, c := range st.chunks[j] {
		if n := r.store.Count(x, c); n > best {
			best = n
		}
	}
	return best
}

// detectSuper implements Section 2.3.2. It returns the canonical super
// key, or ok=false when the likelihood ratio between the two best
// candidates stays under the threshold.
func (r *resolver) detectSuper(st *sentenceState) (string, bool) {
	keys := st.superKeys
	if len(keys) == 1 {
		return keys[0], true
	}
	type scored struct {
		key   string
		score float64 // log p(x) + sum log p(seg|x)
	}
	cands := make([]scored, 0, len(keys))
	for _, key := range keys {
		sc := math.Log(r.pSuper(key))
		for _, joins := range st.joins {
			best := r.cfg.Epsilon
			for _, c := range joins {
				if p := r.pSub(c, key); p > best {
					best = p
				}
			}
			sc += math.Log(best)
		}
		cands = append(cands, scored{key, sc})
	}
	best, second := 0, -1
	for i := 1; i < len(cands); i++ {
		if cands[i].score > cands[best].score {
			second = best
			best = i
		} else if second < 0 || cands[i].score > cands[second].score {
			second = i
		}
	}
	if second >= 0 && cands[best].score-cands[second].score < math.Log(r.cfg.SuperRatio) {
		return "", false
	}
	return cands[best].key, true
}

// segmentChunks resolves an ambiguous segment into its list of
// sub-concepts by repeatedly choosing how many leading chunks form the
// next item (Section 2.3.3): candidates are the prefix joins, scored by
// p(c|x) and the co-occurrence likelihoods with the already-accepted
// sub-concepts; the winner must beat the runner-up by SubRatio. When no
// candidate has any evidence at all, proper-noun chunks default to the
// full join (a compound name such as "Proctor and Gamble" — the
// Downey-style association heuristic of Section 2.1: name fragments do
// not recur independently, while real list members do), and common-noun
// chunks stay undecided until Γ learns more. joins is prefixJoins(chunks).
func (r *resolver) segmentChunks(chunks, joins []string, x string, acceptedSoFar []string) ([]string, bool) {
	var out []string
	accepted := acceptedSoFar
	for len(chunks) > 0 {
		if len(chunks) == 1 {
			out = append(out, chunks[0])
			break
		}
		cands := joins
		scores := make([]float64, len(cands))
		raw := make([]bool, len(cands)) // any unsmoothed evidence?
		for i, c := range cands {
			p := r.store.PYgivenX(c, x)
			if g := 0.1 * r.store.PSubGlobal(c); g > p {
				p = g
			}
			raw[i] = p > 0
			if p < r.cfg.Epsilon {
				p = r.cfg.Epsilon
			}
			sc := math.Log(p)
			for _, y := range accepted {
				q := r.store.PYgivenCX(y, c, x)
				if q < r.cfg.Epsilon {
					q = r.cfg.Epsilon
				}
				sc += math.Log(q)
			}
			scores[i] = sc
		}
		best, second := 0, -1
		anyRaw := raw[0]
		for i := 1; i < len(cands); i++ {
			anyRaw = anyRaw || raw[i]
			if scores[i] > scores[best] {
				second = best
				best = i
			} else if second < 0 || scores[i] > scores[second] {
				second = i
			}
		}
		if !anyRaw {
			// No prefix join has evidence. A known *last* chunk splits
			// off as its own item ("Proctor and Gamble and IBM": IBM is
			// known, leaving {Proctor, Gamble} to resolve), and its
			// acceptance conditions the rest.
			last := chunks[len(chunks)-1]
			if r.store.PYgivenX(last, x) > 0 || r.store.PSubGlobal(last) > 0 {
				left, ok := r.segmentChunks(chunks[:len(chunks)-1], joins[:len(joins)-1], x, append(accepted, last))
				if !ok {
					return nil, false
				}
				out = append(out, left...)
				out = append(out, last)
				return out, true
			}
			// A known *middle* chunk keeps a split plausible — wait for
			// more knowledge. Otherwise unrecurring capitalised fragments
			// are one compound name.
			laterEvidence := false
			for _, c := range chunks[1 : len(chunks)-1] {
				if r.store.PSubGlobal(c) > 0 {
					laterEvidence = true
					break
				}
			}
			if !laterEvidence && allProperChunks(chunks) {
				out = append(out, cands[len(cands)-1])
				break
			}
			return nil, false
		}
		if second >= 0 && scores[best]-scores[second] < math.Log(r.cfg.SubRatio) {
			return nil, false
		}
		item := cands[best]
		out = append(out, item)
		accepted = append(accepted, item)
		chunks = chunks[best+1:]
		joins = prefixJoins(chunks)
	}
	return out, true
}

func allProperChunks(chunks []string) bool {
	for _, c := range chunks {
		if !nlp.IsProperNounPhrase(c) {
			return false
		}
	}
	return len(chunks) > 0
}

// resolve advances one sentence as far as Γ currently allows and returns
// the decision to apply in the reduce phase.
func (r *resolver) resolve(idx int, st *sentenceState) decision {
	d := decision{idx: idx}
	if st.done {
		d.done = true
		return d
	}

	// Step 1: super-concept detection (only until it succeeds once).
	super := st.super
	if !st.superDone {
		s, ok := r.detectSuper(st)
		if !ok {
			return d // retry next round
		}
		super = s
		d.super = s
		d.progress = true
	}

	segs := st.match.Segments

	// Step 2: find the valid scope — the largest position k whose
	// candidate is known well enough (Observation 2). Positions beyond an
	// established scope are junk. Previously accepted positions extend the
	// scope but never establish it on their own (a fallback acceptance of
	// position 1 must not condemn the rest of the list).
	scope := -1
	for j := len(segs) - 1; j >= 0; j-- {
		if r.bestSegCount(st, j, super) >= r.cfg.SubMinCount {
			scope = j
			break
		}
	}
	if scope >= 0 {
		for j := len(segs) - 1; j > scope; j-- {
			if st.status[j] == posAccepted {
				scope = j
				break
			}
		}
	}
	if scope < 0 {
		// Fallback (Observation 1): position 1 alone, provided it is well
		// formed; the rest of the sentence stays undecided for later
		// rounds.
		if st.status[0] == posUndecided && !segs[0].Ambiguous() &&
			!nlp.ContainsDelimiterWord(segs[0].Whole) {
			d.accepts = append(d.accepts, accept{pos: 0, reading: st.chunks[0]})
			d.progress = true
		}
		d.done = r.allDecidedAfter(st, d)
		return d
	}

	// Step 3: decide positions 1..scope; reject positions past the scope.
	acceptedSoFar := append([]string(nil), st.accepted...)
	for j := 0; j <= scope; j++ {
		if st.status[j] != posUndecided {
			continue
		}
		var reading []string
		if segs[j].Ambiguous() {
			var ok bool
			reading, ok = r.segmentChunks(st.chunks[j], st.joins[j], super, acceptedSoFar)
			if !ok {
				continue // too close to call; retry next round
			}
		} else {
			reading = st.chunks[j]
		}
		d.accepts = append(d.accepts, accept{pos: j, reading: reading})
		acceptedSoFar = append(acceptedSoFar, reading...)
		d.progress = true
	}
	for j := scope + 1; j < len(segs); j++ {
		if st.status[j] == posUndecided {
			d.rejects = append(d.rejects, j)
			d.progress = true
		}
	}
	d.done = r.allDecidedAfter(st, d)
	return d
}

// allDecidedAfter reports whether applying d leaves no undecided position.
// resolve decides each undecided position at most once, so that holds
// exactly when d decides as many positions as are undecided.
func (r *resolver) allDecidedAfter(st *sentenceState, d decision) bool {
	undecided := 0
	for _, s := range st.status {
		if s == posUndecided {
			undecided++
		}
	}
	return undecided == len(d.accepts)+len(d.rejects)
}

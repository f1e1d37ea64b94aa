package extraction

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/hearst"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// RoundStats summarises one iteration of Algorithm 1; the per-round series
// regenerate Figures 10 and 11.
type RoundStats struct {
	Round             int
	NewPairs          int64 // distinct pairs first discovered this round
	TotalPairs        int64 // accumulated distinct pairs
	TotalConcepts     int   // accumulated distinct super-concepts
	SentencesResolved int   // sentences fully decided during this round
	SentencesPending  int   // sentences still undecided after this round
	Candidates        int   // undecided sub-concept positions scanned this round
	Accepted          int   // positions accepted by the likelihood-ratio tests
	Rejected          int   // positions rejected by the likelihood-ratio tests
	Elapsed           time.Duration
}

// counters renders the round as the counter map reported to the
// StageReporter (and thence to probase-build's progress lines and
// stats.json).
func (r RoundStats) counters() map[string]int64 {
	return map[string]int64{
		"sentences_scanned":  int64(r.SentencesResolved + r.SentencesPending),
		"candidates":         int64(r.Candidates),
		"accepted":           int64(r.Accepted),
		"rejected":           int64(r.Rejected),
		"new_pairs":          r.NewPairs,
		"total_pairs":        r.TotalPairs,
		"total_concepts":     int64(r.TotalConcepts),
		"sentences_resolved": int64(r.SentencesResolved),
		"sentences_pending":  int64(r.SentencesPending),
	}
}

// Group is the set of isA pairs extracted from one sentence —
// s = {(x, y1), ..., (x, ym)} in the paper's notation. Per Property 1 all
// occurrences of x in a group share one sense, which makes groups the unit
// from which taxonomy construction builds its local taxonomies.
type Group struct {
	Super string
	Subs  []string
	// Order is the 1-based global corpus position of the group's sentence.
	// It gives taxonomy construction a resume-stable replay order; 0 means
	// unspecified (hand-built groups), in which case slice order rules.
	Order int
}

// Result is the output of a full extraction run.
type Result struct {
	Store      *kb.Store       // Γ
	Rounds     []RoundStats    // one entry per executed round
	FirstRound map[kb.Pair]int // round in which each pair was first found (0 = inherited from the base)
	Parsed     int             // sentences that matched a Hearst pattern (cumulative across resumes)
	Groups     []Group         // per-sentence pair groups, for taxonomy construction
	PartOf     int             // part-whole sentences recorded as negative evidence (cumulative)
	// Checkpoint is the resumable fixpoint state after this run; feed it
	// (with Store) back through Resume to extend the corpus incrementally.
	Checkpoint *Checkpoint
	// DirtyRoots lists, sorted, the super-concepts whose final group
	// records differ from the base run's (compared via the checkpoint's
	// per-root group-list hashes): changed, new, or vanished roots. On a
	// from-scratch run that is every root; on a resumed run it is the
	// delta's exact footprint, the seed of the taxonomy layer's dirty
	// label set.
	DirtyRoots []string
}

// PairsThroughRound returns the distinct pairs discovered in rounds
// 1..r, for per-iteration precision (Figure 11).
func (r *Result) PairsThroughRound(round int) []kb.Pair {
	var out []kb.Pair
	for p, fr := range r.FirstRound {
		if fr <= round {
			out = append(out, p)
		}
	}
	return out
}

// Run executes the iterative extraction over the corpus sentences.
// Each round reads an immutable snapshot of Γ (the store is only written
// in the single-threaded reduce step between rounds), so the result is
// independent of goroutine scheduling.
func Run(inputs []Input, cfg Config) *Result {
	// With a nil checkpoint there is no prior state to restore, so Resume
	// cannot fail.
	res, err := Resume(nil, inputs, cfg)
	if err != nil {
		panic("extraction: Run: " + err.Error())
	}
	return res
}

// Resume continues a previous extraction over a corpus delta. cp is the
// checkpoint of the base run (nil for a from-scratch run); inputs are the
// new sentences, numbered after the base corpus. The checkpoint's raw
// tail — the base sentences past the last chunk boundary, whose
// end-of-corpus settle was provisional — is replayed ahead of the delta,
// and pending boundary sentences are rehydrated, so the resumed fold
// settles at exactly the chunk boundaries a from-scratch run over the
// concatenated corpus would and makes bit-identical decisions.
//
// cp is not mutated: the boundary store is cloned before new evidence
// lands, so a base build can keep serving while its checkpoint seeds
// delta builds.
func Resume(cp *Checkpoint, inputs []Input, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	rep := obs.ReporterOrNop(cfg.Reporter)
	rep.StageStart(obs.StageExtraction)
	runStart := time.Now()

	var (
		store      *kb.Store
		baseIndex  int // global index of the first stream sentence
		doneGroups []Group
	)
	var states []*sentenceState
	stream := inputs
	if cp != nil {
		if cp.Store == nil {
			return nil, fmt.Errorf("%w: checkpoint has no store", ErrBadCheckpoint)
		}
		if cp.ChunkSize != cfg.ChunkSize {
			return nil, fmt.Errorf("%w: checkpoint chunk size %d, config %d",
				ErrBadCheckpoint, cp.ChunkSize, cfg.ChunkSize)
		}
		boundary := cp.NumInputs - len(cp.Tail)
		if boundary < 0 || boundary%cfg.ChunkSize != 0 {
			return nil, fmt.Errorf("%w: boundary %d not chunk-aligned", ErrBadCheckpoint, boundary)
		}
		store = cp.Store.Clone()
		// Serialised stores carry no cap; restore it so the kept evidence
		// set matches a from-scratch run at the same cap.
		store.SetMaxEvidence(cfg.MaxEvidencePerPair)
		baseIndex = boundary
		doneGroups = cp.Groups
		for _, ps := range cp.Pending {
			st, err := rehydrate(ps)
			if err != nil {
				return nil, err
			}
			states = append(states, st)
		}
		if len(cp.Tail) > 0 {
			stream = make([]Input, 0, len(cp.Tail)+len(inputs))
			stream = append(append(stream, cp.Tail...), inputs...)
		}
		rep.Count(obs.StageExtraction, "resumed_pending", int64(len(cp.Pending)))
		rep.Count(obs.StageExtraction, "resumed_tail", int64(len(cp.Tail)))
	} else {
		store = kb.NewStore(cfg.MaxEvidencePerPair)
	}

	res := &Result{
		Store:      store,
		FirstRound: make(map[kb.Pair]int),
	}
	parsed, partOf := 0, 0
	if cp != nil {
		parsed, partOf = cp.Parsed, cp.PartOf
		// Base pairs count as round 0 so a resumed run's new_pairs series
		// reports only genuinely new discoveries.
		store.ForEachPair(func(x, y string, _ int64) {
			res.FirstRound[kb.Pair{X: x, Y: y}] = 0
		})
	}
	rep.Count(obs.StageExtraction, "sentences_total", int64(len(inputs)))
	rep.Count(obs.StageExtraction, "workers", int64(cfg.Workers))

	// consume parses one sentence into the live state (or straight into Γ:
	// composition sentences — "trees are comprised of branches" — become
	// negative evidence against the corresponding isA claims, Section 4.1;
	// negatives never influence decisions, and the canonical seq ordering
	// makes their arrival time irrelevant to the stored lists).
	consume := func(in Input, index int) {
		if po, ok := hearst.ParsePartOf(in.Text); ok {
			x := CanonicalSuper(po.Whole)
			for j, part := range po.Parts {
				store.AddEvidence(x, CanonicalSub(part), kb.Evidence{
					PageScore: in.PageScore,
					ListLen:   len(po.Parts),
					Pos:       j + 1,
					Negative:  true,
					Seq:       evidenceSeq(index, j+1, 0),
				})
				partOf++
			}
			return
		}
		m, ok := hearst.Parse(in.Text)
		if !ok {
			return
		}
		states = append(states, newSentenceState(index, in.Text, m, in.PageScore))
		parsed++
	}

	// settle iterates the fixpoint over the undecided sentences until no
	// decision moves (or the per-settle round cap). The round counter is
	// global across settles so FirstRound and the Figure 10/11 series stay
	// monotone.
	round := 0
	settle := func() {
		var pending []int
		for i, st := range states {
			if !st.done {
				pending = append(pending, i)
			}
		}
		for r := 0; r < cfg.MaxRounds && len(pending) > 0; r++ {
			round++
			roundStart := time.Now()
			candidates := 0
			for _, idx := range pending {
				for _, ps := range states[idx].status {
					if ps == posUndecided {
						candidates++
					}
				}
			}
			decisions := mapPhase(states, pending, cfg, store)
			progress, resolved, newPairs, accepted, rejected := reducePhase(states, pending, decisions, res, round, cfg)

			var next []int
			for _, idx := range pending {
				if !states[idx].done {
					next = append(next, idx)
				}
			}
			pending = next

			st := store.Stats()
			rs := RoundStats{
				Round:             round,
				NewPairs:          newPairs,
				TotalPairs:        st.Pairs,
				TotalConcepts:     st.Supers,
				SentencesResolved: resolved,
				SentencesPending:  len(pending),
				Candidates:        candidates,
				Accepted:          accepted,
				Rejected:          rejected,
				Elapsed:           time.Since(roundStart),
			}
			res.Rounds = append(res.Rounds, rs)
			rep.Round(obs.StageExtraction, round, rs.counters(), rs.Elapsed)
			if !progress {
				break
			}
		}
	}

	// The fold: consume chunk, settle, repeat. The checkpoint is captured
	// at the last absolute chunk boundary the corpus crosses — the state
	// there is canonical (any longer corpus settles at the same points) —
	// with the sentences past it carried raw, to be re-decided on resume.
	end := baseIndex + len(stream)
	finalBoundary := end - end%cfg.ChunkSize
	var next *Checkpoint
	pos := 0
	for {
		if gidx := baseIndex + pos; gidx == finalBoundary && next == nil {
			next = captureCheckpoint(cfg, states, store, stream[pos:], end, parsed, partOf, doneGroups)
		}
		if pos == len(stream) {
			break
		}
		target := pos + cfg.ChunkSize - (baseIndex+pos)%cfg.ChunkSize
		if target > len(stream) {
			target = len(stream)
		}
		for ; pos < target; pos++ {
			consume(stream[pos], baseIndex+pos)
		}
		settle()
	}

	res.Parsed = parsed
	res.PartOf = partOf
	res.Checkpoint = next
	res.Groups = append(res.Groups, doneGroups...)
	for _, st := range states {
		if st.super != "" && len(st.accepted) > 0 {
			res.Groups = append(res.Groups, Group{
				Super: st.super,
				Subs:  append([]string(nil), st.accepted...),
				Order: st.index + 1,
			})
		}
	}
	sortGroupsByOrder(res.Groups)
	hashes := rootGroupHashes(res.Groups)
	next.RootHashes = hashes
	// The dirty set is exact: a root is dirty iff its final group list
	// differs from the base run's — changed hash, new root, or a root
	// whose groups all vanished (super detection can flip on replay).
	dirty := make(map[string]bool)
	var baseHashes map[string]uint64
	if cp != nil {
		baseHashes = cp.RootHashes
	}
	for r, h := range hashes {
		if ph, ok := baseHashes[r]; cp == nil || !ok || ph != h {
			dirty[r] = true
		}
	}
	for r := range baseHashes {
		if _, ok := hashes[r]; !ok {
			dirty[r] = true
		}
	}
	res.DirtyRoots = sortedKeys(dirty)
	rep.Count(obs.StageExtraction, "sentences_parsed", int64(parsed))
	rep.Count(obs.StageExtraction, "part_of_negatives", int64(partOf))
	rep.Count(obs.StageExtraction, "groups", int64(len(res.Groups)))
	rep.StageEnd(obs.StageExtraction, time.Since(runStart))
	return res, nil
}

// captureCheckpoint snapshots the fold state at the final chunk boundary.
// The store clone is taken before any tail evidence lands, so the
// checkpointed Γ is exactly the boundary Γ.
func captureCheckpoint(cfg Config, states []*sentenceState, store *kb.Store,
	tail []Input, numInputs, parsed, partOf int, doneGroups []Group) *Checkpoint {
	next := &Checkpoint{
		NumInputs: numInputs,
		ChunkSize: cfg.ChunkSize,
		Parsed:    parsed,
		PartOf:    partOf,
		Store:     store.Clone(),
		Groups:    append([]Group(nil), doneGroups...),
		Tail:      append([]Input(nil), tail...),
	}
	for _, st := range states {
		if st.done {
			if st.super != "" && len(st.accepted) > 0 {
				next.Groups = append(next.Groups, Group{
					Super: st.super,
					Subs:  append([]string(nil), st.accepted...),
					Order: st.index + 1,
				})
			}
		} else {
			next.Pending = append(next.Pending, dehydrate(st))
		}
	}
	sortGroupsByOrder(next.Groups)
	sort.Slice(next.Pending, func(i, j int) bool { return next.Pending[i].Index < next.Pending[j].Index })
	return next
}

func sortGroupsByOrder(gs []Group) {
	sort.SliceStable(gs, func(i, j int) bool { return gs[i].Order < gs[j].Order })
}

// rootGroupHashes fingerprints each root's final emitted group list with
// FNV-1a over the (Order, Subs) sequence of its groups in corpus order.
// Two runs give a root equal hashes exactly when its group records are
// identical — the reuse contract the taxonomy layer's MergeDelta needs.
func rootGroupHashes(groups []Group) map[string]uint64 {
	if len(groups) == 0 {
		return nil
	}
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	hashes := make(map[string]uint64)
	for _, g := range groups {
		h, ok := hashes[g.Super]
		if !ok {
			h = fnvOffset
		}
		for v := uint64(g.Order); ; v >>= 8 {
			h = (h ^ (v & 0xff)) * fnvPrime
			if v < 1<<8 {
				break
			}
		}
		for _, s := range g.Subs {
			for i := 0; i < len(s); i++ {
				h = (h ^ uint64(s[i])) * fnvPrime
			}
			h = (h ^ 0xfe) * fnvPrime // sub separator
		}
		hashes[g.Super] = (h ^ 0xff) * fnvPrime // group separator
	}
	return hashes
}

func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// rehydrate rebuilds a live sentence state from its checkpointed form.
// Parsing is pure, so re-parsing the stored text reproduces the match;
// the checkpoint only has to restore the decisions layered on top.
func rehydrate(ps PendingSentence) (*sentenceState, error) {
	m, ok := hearst.Parse(ps.Text)
	if !ok {
		return nil, fmt.Errorf("%w: pending sentence %d no longer parses", ErrBadCheckpoint, ps.Index)
	}
	if len(m.Segments) != len(ps.Status) {
		return nil, fmt.Errorf("%w: pending sentence %d has %d segments, checkpoint has %d",
			ErrBadCheckpoint, ps.Index, len(m.Segments), len(ps.Status))
	}
	st := newSentenceState(ps.Index, ps.Text, m, ps.PageScore)
	st.super = ps.Super
	st.superDone = ps.SuperDone
	st.accepted = append([]string(nil), ps.Accepted...)
	for i, s := range ps.Status {
		st.status[i] = posState(s)
	}
	return st, nil
}

// dehydrate converts a live undecided sentence into its checkpointed form.
func dehydrate(st *sentenceState) PendingSentence {
	ps := PendingSentence{
		Index:     st.index,
		Text:      st.text,
		PageScore: st.pageScore,
		Super:     st.super,
		SuperDone: st.superDone,
		Status:    make([]uint8, len(st.status)),
		Accepted:  append([]string(nil), st.accepted...),
	}
	for i, s := range st.status {
		ps.Status[i] = uint8(s)
	}
	return ps
}

// mapPhase resolves the pending sentences in parallel against the current
// Γ snapshot. Decisions are returned in pending order for a deterministic
// reduce.
//
// Sharing audit: a resolver holds only a Config value (copied, never
// written after withDefaults) and the *kb.Store, which is RWMutex-guarded
// and written exclusively by the single-threaded reduce phase — during
// the map fan-out every store access is a read. The resolve call graph
// (resolve, detectSuper, segmentChunks, pSub, pSuper, bestSegCount)
// keeps all mutable state in locals, and distinct items touch distinct
// sentenceStates. A state's derived readings (superKeys, chunks, joins)
// are written only by newSentenceState, before the state joins any
// round; resolve reads them and may hand a chunks slice to the reduce
// phase as an accepted reading, which only reads it too. Each worker
// still gets its own resolver below, so a future scratch field (say, a
// memo table) cannot silently become shared state.
func mapPhase(states []*sentenceState, pending []int, cfg Config, store *kb.Store) []decision {
	decisions := make([]decision, len(pending))
	workers := parallel.Bound(cfg.Workers, len(pending))
	resolvers := make([]resolver, max(workers, 1))
	for w := range resolvers {
		resolvers[w] = resolver{cfg: cfg, store: store}
	}
	_ = parallel.ForEachWorker(context.Background(), workers, len(pending), func(w, i int) error {
		idx := pending[i]
		decisions[i] = resolvers[w].resolve(idx, states[idx])
		return nil
	})
	return decisions
}

// reducePhase applies decisions to Γ single-threaded, in pending order.
func reducePhase(states []*sentenceState, pending []int, decisions []decision, res *Result, round int, cfg Config) (progress bool, resolved int, newPairs int64, accepted, rejected int) {
	for i, idx := range pending {
		d := decisions[i]
		st := states[idx]
		if d.progress {
			progress = true
		}
		accepted += len(d.accepts)
		rejected += len(d.rejects)
		if d.super != "" {
			st.super = d.super
			st.superDone = true
		}
		var counted map[string]bool
		if len(d.accepts) > 0 {
			counted = make(map[string]bool, len(st.accepted))
			for _, s := range st.accepted {
				counted[s] = true
			}
		}
		for _, a := range d.accepts {
			st.status[a.pos] = posAccepted
			for k, sub := range a.reading {
				if sub == "" || sub == st.super || counted[sub] {
					continue
				}
				pair := kb.Pair{X: st.super, Y: sub}
				if _, seen := res.FirstRound[pair]; !seen {
					res.FirstRound[pair] = round
					newPairs++
				}
				res.Store.Add(st.super, sub, 1)
				res.Store.AddEvidence(st.super, sub, kb.Evidence{
					Pattern:   int(st.match.Pattern),
					PageScore: st.pageScore,
					ListLen:   len(st.match.Segments),
					Pos:       a.pos + 1,
					Seq:       evidenceSeq(st.index, a.pos+1, k),
				})
				for _, prev := range st.accepted {
					res.Store.AddCo(st.super, sub, prev, 1)
				}
				st.accepted = append(st.accepted, sub)
				counted[sub] = true
			}
		}
		for _, j := range d.rejects {
			st.status[j] = posRejected
		}
		if d.done && !st.done {
			st.done = true
			resolved++
		}
	}
	return progress, resolved, newPairs, accepted, rejected
}

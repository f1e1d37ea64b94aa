package taxonomy

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/extraction"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// State is the outcome of Algorithm 2's merge stages in a form that can
// be persisted and partially reused: per root label, the sense clusters
// that survive horizontal merging and fragment adoption. Vertical links
// are *not* stored — they are a pure function of the cluster child sets
// (Property 3 reads only merge-frozen state), so Assemble recomputes
// them. That split is what makes delta builds cheap: a label whose group
// records did not change keeps its LabelState verbatim, and only the
// cross-label link computation runs over the full cluster set.
type State struct {
	Labels []LabelState // sorted by Label
}

// LabelState is the merge outcome for one root label.
type LabelState struct {
	Label     string
	Locals    int // input local taxonomies (sentences) for this label
	Hops      int // horizontal fixpoint merges (adoption excluded)
	Adoptions int
	Clusters  []Cluster // sorted by mass desc, Ord asc
}

// Cluster is one sense cluster: the merged child multiset plus the global
// corpus order of its representative local. Ord reproduces the engine-id
// tiebreak of the monolithic build: engine ids follow the corpus-ordered
// groups slice, so ascending Ord within a label is exactly ascending
// engine id, keeping sense numbering and link-target order byte-stable
// across full and delta builds.
type Cluster struct {
	Ord      int
	Children map[string]int64
}

// Mass is the total child occurrence count of the cluster.
func (c Cluster) Mass() int64 { return childMass(c.Children) }

func (c Cluster) childLabels() []string {
	out := make([]string, 0, len(c.Children))
	for k := range c.Children {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// labelLocals is one label's local taxonomies in corpus order, paired
// with each local's global order key.
type labelLocals struct {
	label  string
	locals []*Local
	ords   []int
}

// collectLabels groups the extraction output per root label, preserving
// corpus order within each label. A group without an Order (hand-built
// inputs) falls back to its slice position, which preserves relative
// order — the only property the merge replay needs.
func collectLabels(groups []extraction.Group) []labelLocals {
	idx := make(map[string]int)
	var out []labelLocals
	for i, g := range groups {
		if g.Super == "" || len(g.Subs) == 0 {
			continue
		}
		ord := g.Order
		if ord == 0 {
			ord = i + 1
		}
		j, ok := idx[g.Super]
		if !ok {
			j = len(out)
			idx[g.Super] = j
			out = append(out, labelLocals{label: g.Super})
		}
		out[j].locals = append(out[j].locals, NewLocal(g.Super, g.Subs))
		out[j].ords = append(out[j].ords, ord)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].label < out[b].label })
	return out
}

// mergeLabel runs the horizontal fixpoint and fragment adoption for one
// label in isolation. Labels merge independently (Section 3.4), and the
// per-label replay is positionally isomorphic to the monolithic engine
// restricted to the label's ids, so the resulting clusters — including
// which local ends up as each cluster's representative — are identical.
func mergeLabel(lg labelLocals, cfg Config) LabelState {
	eng := newEngine(lg.locals, cfg.Sim)
	ids := make([]int, len(lg.locals))
	for i := range ids {
		ids[i] = i
	}
	hops := eng.horizontalFixpoint(ids)
	adoptions := 0
	if !cfg.DisableAdoption {
		adoptions = eng.adoptFragments()
	}
	ls := LabelState{Label: lg.label, Locals: len(lg.locals), Hops: hops, Adoptions: adoptions}
	for _, id := range eng.alive() {
		ls.Clusters = append(ls.Clusters, Cluster{Ord: lg.ords[id], Children: eng.nodes[id].Children})
	}
	sortClusters(ls.Clusters)
	return ls
}

func sortClusters(cs []Cluster) {
	sort.Slice(cs, func(a, b int) bool {
		ma, mb := cs[a].Mass(), cs[b].Mass()
		if ma != mb {
			return ma > mb
		}
		return cs[a].Ord < cs[b].Ord
	})
}

func mergeLabels(byLabel []labelLocals, cfg Config, rep obs.StageReporter) *State {
	rep.StageStart(obs.StageTaxonomyHorizontal)
	start := time.Now()
	states := make([]LabelState, len(byLabel))
	_ = parallel.ForEach(context.Background(), cfg.Workers, len(byLabel), func(i int) error {
		states[i] = mergeLabel(byLabel[i], cfg)
		return nil
	})
	rep.Count(obs.StageTaxonomyHorizontal, "workers", int64(cfg.Workers))
	rep.StageEnd(obs.StageTaxonomyHorizontal, time.Since(start))
	return &State{Labels: states}
}

// Merge runs the horizontal merge stage (plus fragment adoption) over the
// extraction groups and returns the reusable per-label state.
func Merge(groups []extraction.Group, cfg Config) *State {
	cfg = cfg.withDefaults()
	return mergeLabels(collectLabels(groups), cfg, obs.ReporterOrNop(cfg.Reporter))
}

// MergeDelta is Merge with reuse: labels not named in dirtyRoots keep
// their LabelState from prev verbatim; dirty and new labels are rebuilt
// from their (complete) group record lists. Soundness rests on the
// extraction contract: a label outside DirtyRoots has an identical
// per-label group record list in both builds (the checkpoint's per-root
// group-list hashes make the dirty set exact), so its merge replay would
// reproduce the same clusters. As a defensive guard, a "clean" label
// whose local count changed anyway is rebuilt rather than trusted.
func MergeDelta(prev *State, groups []extraction.Group, dirtyRoots []string, cfg Config) *State {
	cfg = cfg.withDefaults()
	rep := obs.ReporterOrNop(cfg.Reporter)
	byLabel := collectLabels(groups)
	dirty := make(map[string]bool, len(dirtyRoots))
	for _, r := range dirtyRoots {
		dirty[r] = true
	}
	prevByLabel := make(map[string]*LabelState, len(prev.Labels))
	for i := range prev.Labels {
		prevByLabel[prev.Labels[i].Label] = &prev.Labels[i]
	}

	rep.StageStart(obs.StageTaxonomyHorizontal)
	start := time.Now()
	states := make([]LabelState, len(byLabel))
	rebuild := make([]bool, len(byLabel))
	var reusedClusters, dirtyLabels int64
	for i, lg := range byLabel {
		ps := prevByLabel[lg.label]
		if ps != nil && !dirty[lg.label] && ps.Locals == len(lg.locals) {
			states[i] = *ps
			reusedClusters += int64(len(ps.Clusters))
			continue
		}
		rebuild[i] = true
		dirtyLabels++
	}
	_ = parallel.ForEach(context.Background(), cfg.Workers, len(byLabel), func(i int) error {
		if rebuild[i] {
			states[i] = mergeLabel(byLabel[i], cfg)
		}
		return nil
	})
	rep.Count(obs.StageTaxonomyHorizontal, "workers", int64(cfg.Workers))
	rep.Count(obs.StageTaxonomy, "dirty_labels", dirtyLabels)
	rep.Count(obs.StageTaxonomy, "reused_clusters", reusedClusters)
	rep.StageEnd(obs.StageTaxonomyHorizontal, time.Since(start))
	return &State{Labels: states}
}

// Assemble runs the vertical stage and DAG assembly over a merge state.
// Build(groups, cfg) ≡ Assemble(Merge(groups, cfg), cfg).
func Assemble(state *State, cfg Config) *Result {
	cfg = cfg.withDefaults()
	return assembleState(state, cfg, obs.ReporterOrNop(cfg.Reporter))
}

// flatLink is one vertical link discovered for a cluster: its child slot
// label and the flat index of the linked cluster.
type flatLink struct {
	child  string
	target int
}

func assembleState(state *State, cfg Config, rep obs.StageReporter) *Result {
	// Flatten the clusters; labels are sorted in State and clusters keep
	// their stored (mass desc, Ord asc) order, so flat indexes are
	// deterministic.
	type flatCluster struct {
		label string
		c     *Cluster
	}
	var flat []flatCluster
	byLabel := make(map[string][]int)
	for li := range state.Labels {
		ls := &state.Labels[li]
		for ci := range ls.Clusters {
			byLabel[ls.Label] = append(byLabel[ls.Label], len(flat))
			flat = append(flat, flatCluster{label: ls.Label, c: &ls.Clusters[ci]})
		}
	}

	// Vertical stage: links are a pure function of the merge-frozen child
	// sets (Property 3), computed per cluster in parallel. A cluster's
	// child slot y links to every cluster of label y with similar
	// children, excluding the cluster itself.
	rep.StageStart(obs.StageTaxonomyVertical)
	stageStart := time.Now()
	linkSlots := make([][]flatLink, len(flat))
	_ = parallel.ForEach(context.Background(), cfg.Workers, len(flat), func(a int) error {
		var links []flatLink
		for _, y := range flat[a].c.childLabels() {
			for _, b := range byLabel[y] {
				if a == b {
					continue
				}
				if cfg.Sim.Similar(flat[a].c.Children, flat[b].c.Children) {
					links = append(links, flatLink{child: y, target: b})
				}
			}
		}
		linkSlots[a] = links
		return nil
	})
	vops := 0
	for _, links := range linkSlots {
		vops += len(links)
	}
	rep.Count(obs.StageTaxonomyVertical, "workers", int64(cfg.Workers))
	rep.StageEnd(obs.StageTaxonomyVertical, time.Since(stageStart))

	rep.StageStart(obs.StageTaxonomyAssemble)
	stageStart = time.Now()
	res := &Result{
		Graph:  graph.NewBuilder(),
		Senses: make(map[string][]string),
		State:  state,
		Stats:  BuildStats{VerticalOps: vops},
	}
	for _, ls := range state.Labels {
		res.Stats.Locals += ls.Locals
		res.Stats.HorizontalOps += ls.Hops
		res.Stats.Adoptions += ls.Adoptions
	}

	// Sense naming with optional fragment dropping, then node interning —
	// same order as the monolithic build, so graph node ids match.
	senseName := make([]string, len(flat))
	kept := make(map[string][]int, len(state.Labels))
	for _, ls := range state.Labels {
		ids := byLabel[ls.Label]
		if cfg.MinSenseEvidence > 0 && len(ids) > 1 {
			k := ids[:1]
			for _, id := range ids[1:] {
				if int(flat[id].c.Mass()) >= cfg.MinSenseEvidence {
					k = append(k, id)
				} else {
					res.Stats.DroppedClusters++
				}
			}
			ids = k
		}
		names := make([]string, len(ids))
		for i, id := range ids {
			senseName[id] = SenseLabel(ls.Label, i, len(ids))
			names[i] = senseName[id]
		}
		kept[ls.Label] = ids
		res.Senses[ls.Label] = names
		res.Stats.Senses += len(ids)
		if len(ids) > 1 {
			res.Stats.MultiSense++
		}
	}
	for _, ls := range state.Labels {
		for _, id := range kept[ls.Label] {
			res.Graph.Intern(senseName[id])
		}
	}

	// Edge emission: a child slot resolves to its linked surviving sense
	// clusters in ascending Ord (the monolithic build's ascending engine
	// id); an unlinked slot becomes the plain label node.
	type pendingEdge struct {
		from, to string
		count    int64
	}
	var edges []pendingEdge
	for _, ls := range state.Labels {
		for _, id := range kept[ls.Label] {
			from := senseName[id]
			targetsBy := make(map[string][]int)
			for _, l := range linkSlots[id] {
				if senseName[l.target] != "" {
					targetsBy[l.child] = append(targetsBy[l.child], l.target)
				}
			}
			for _, y := range flat[id].c.childLabels() {
				n := flat[id].c.Children[y]
				if targets := targetsBy[y]; len(targets) > 0 {
					sort.Slice(targets, func(a, b int) bool {
						return flat[targets[a]].c.Ord < flat[targets[b]].c.Ord
					})
					for _, tid := range targets {
						edges = append(edges, pendingEdge{from, senseName[tid], n})
					}
					continue
				}
				edges = append(edges, pendingEdge{from, y, n})
			}
		}
	}
	// Deterministic, heaviest-first edge insertion with cycle refusal.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].count != edges[j].count {
			return edges[i].count > edges[j].count
		}
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	for _, e := range edges {
		from := res.Graph.Intern(e.from)
		to := res.Graph.Intern(e.to)
		if from == to {
			res.Stats.SkippedCycles++
			continue
		}
		if res.Graph.HasPath(to, from) {
			res.Stats.SkippedCycles++
			continue
		}
		res.Graph.AddEdge(from, to, e.count, 0)
	}
	rep.StageEnd(obs.StageTaxonomyAssemble, time.Since(stageStart))
	for counter, v := range map[string]int64{
		"locals":           int64(res.Stats.Locals),
		"horizontal_ops":   int64(res.Stats.HorizontalOps),
		"vertical_ops":     int64(res.Stats.VerticalOps),
		"adoptions":        int64(res.Stats.Adoptions),
		"senses":           int64(res.Stats.Senses),
		"multi_sense":      int64(res.Stats.MultiSense),
		"skipped_cycles":   int64(res.Stats.SkippedCycles),
		"dropped_clusters": int64(res.Stats.DroppedClusters),
	} {
		rep.Count(obs.StageTaxonomy, counter, v)
	}
	return res
}

// ErrBadState reports a structurally invalid taxonomy state.
var ErrBadState = errors.New("taxonomy: bad state")

// EncodeState writes the merge state in the binary layout embedded in
// full snapshots.
func EncodeState(w io.Writer, s *State) error {
	bw := bufio.NewWriter(w)
	putUv := func(v uint64) {
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(buf[:], v)
		bw.Write(buf[:n])
	}
	putStr := func(str string) {
		putUv(uint64(len(str)))
		bw.WriteString(str)
	}
	putUv(uint64(len(s.Labels)))
	for _, ls := range s.Labels {
		putStr(ls.Label)
		putUv(uint64(ls.Locals))
		putUv(uint64(ls.Hops))
		putUv(uint64(ls.Adoptions))
		putUv(uint64(len(ls.Clusters)))
		for _, c := range ls.Clusters {
			putUv(uint64(c.Ord))
			putUv(uint64(len(c.Children)))
			for _, k := range c.childLabels() {
				putStr(k)
				putUv(uint64(c.Children[k]))
			}
		}
	}
	return bw.Flush()
}

// DecodeState reads a state written by EncodeState.
func DecodeState(r io.Reader) (*State, error) {
	br := bufio.NewReader(r)
	getUv := func(max uint64, what string) (uint64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil || v > max {
			return 0, fmt.Errorf("%w: %s", ErrBadState, what)
		}
		return v, nil
	}
	getStr := func() (string, error) {
		n, err := getUv(1<<20, "string length")
		if err != nil {
			return "", err
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", fmt.Errorf("%w: string bytes: %v", ErrBadState, err)
		}
		return string(buf), nil
	}
	nlabels, err := getUv(1<<28, "label count")
	if err != nil {
		return nil, err
	}
	s := &State{}
	if nlabels > 0 {
		s.Labels = make([]LabelState, 0, minUv(nlabels, 1<<16))
	}
	for i := uint64(0); i < nlabels; i++ {
		var ls LabelState
		if ls.Label, err = getStr(); err != nil {
			return nil, err
		}
		for _, dst := range []*int{&ls.Locals, &ls.Hops, &ls.Adoptions} {
			v, err := getUv(1<<40, "label counter")
			if err != nil {
				return nil, err
			}
			*dst = int(v)
		}
		nclusters, err := getUv(1<<24, "cluster count")
		if err != nil {
			return nil, err
		}
		if nclusters > 0 {
			ls.Clusters = make([]Cluster, 0, minUv(nclusters, 1<<12))
		}
		for j := uint64(0); j < nclusters; j++ {
			var c Cluster
			ord, err := getUv(1<<40, "cluster ord")
			if err != nil {
				return nil, err
			}
			c.Ord = int(ord)
			nchildren, err := getUv(1<<24, "child count")
			if err != nil {
				return nil, err
			}
			c.Children = make(map[string]int64, minUv(nchildren, 1<<12))
			for k := uint64(0); k < nchildren; k++ {
				key, err := getStr()
				if err != nil {
					return nil, err
				}
				cnt, err := getUv(1<<40, "child mass")
				if err != nil {
					return nil, err
				}
				c.Children[key] = int64(cnt)
			}
			ls.Clusters = append(ls.Clusters, c)
		}
		s.Labels = append(s.Labels, ls)
	}
	return s, nil
}

func minUv(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// stateFingerprint canonically serialises the clusters and the vertical
// links Assemble would derive — the same format engine.fingerprint uses,
// so the per-label replay can be checked against the monolithic engine.
func stateFingerprint(s *State, sim Similarity) string {
	type fc struct {
		label string
		c     *Cluster
	}
	var flat []fc
	byLabel := make(map[string][]int)
	for li := range s.Labels {
		ls := &s.Labels[li]
		for ci := range ls.Clusters {
			byLabel[ls.Label] = append(byLabel[ls.Label], len(flat))
			flat = append(flat, fc{ls.Label, &ls.Clusters[ci]})
		}
	}
	sig := make([]string, len(flat))
	for i, f := range flat {
		var b bytes.Buffer
		b.WriteString(f.label)
		b.WriteString("::")
		for _, c := range f.c.childLabels() {
			fmt.Fprintf(&b, "%s=%d;", c, f.c.Children[c])
		}
		sig[i] = b.String()
	}
	clusters := append([]string(nil), sig...)
	sort.Strings(clusters)
	var links []string
	for a, f := range flat {
		for _, y := range f.c.childLabels() {
			for _, b := range byLabel[y] {
				if a != b && sim.Similar(f.c.Children, flat[b].c.Children) {
					links = append(links, sig[a]+" -> "+sig[b])
				}
			}
		}
	}
	sort.Strings(links)
	return joinLines(clusters) + "\n#links\n" + joinLines(links)
}

func joinLines(ss []string) string {
	var b bytes.Buffer
	for i, s := range ss {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(s)
	}
	return b.String()
}

package taxonomy

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/parallel"
)

// engine holds the merge state of Algorithm 2: a set of local taxonomies
// (shrinking under horizontal merges) and the vertical links between
// them. It supports both the staged horizontal-first schedule (Theorem 2's
// minimal schedule, used in production) and arbitrary-order merging (used
// to verify Theorem 1's confluence).
type engine struct {
	sim    Similarity
	nodes  []*Local // nil entries are merged-away locals
	parent []int    // union-find over node indexes
	links  map[[2]int]bool
	hops   int // horizontal merge operations performed
	vops   int // vertical merge operations performed
}

func newEngine(locals []*Local, sim Similarity) *engine {
	e := &engine{
		sim:    sim,
		nodes:  make([]*Local, len(locals)),
		parent: make([]int, len(locals)),
		links:  make(map[[2]int]bool),
	}
	for i, l := range locals {
		e.nodes[i] = l.clone()
		e.parent[i] = i
	}
	return e
}

func (e *engine) find(i int) int {
	for e.parent[i] != i {
		e.parent[i] = e.parent[e.parent[i]]
		i = e.parent[i]
	}
	return i
}

// alive returns the live representative indexes, sorted.
func (e *engine) alive() []int {
	var out []int
	for i := range e.nodes {
		if e.find(i) == i {
			out = append(out, i)
		}
	}
	return out
}

// canHorizontal reports whether live locals a and b may merge.
func (e *engine) canHorizontal(a, b int) bool {
	if a == b {
		return false
	}
	la, lb := e.nodes[a], e.nodes[b]
	return la.Root == lb.Root && e.sim.Similar(la.Children, lb.Children)
}

// mergeNodes folds b into a without touching the link set or counters —
// the label-local core of a horizontal merge, safe to run concurrently
// for distinct labels while no links exist.
func (e *engine) mergeNodes(a, b int) {
	e.nodes[a].absorb(e.nodes[b])
	e.nodes[b] = nil
	e.parent[b] = a
}

// mergeHorizontal folds b into a.
func (e *engine) mergeHorizontal(a, b int) {
	e.mergeNodes(a, b)
	// Retarget links through the union-find lazily; normalise now to keep
	// the link set canonical.
	if len(e.links) > 0 {
		fresh := make(map[[2]int]bool, len(e.links))
		for k := range e.links {
			from, to := e.find(k[0]), e.find(k[1])
			if from != to {
				fresh[[2]int{from, to}] = true
			}
		}
		e.links = fresh
	}
	e.hops++
}

// canVertical reports whether a link a -> b may be added: b's root is one
// of a's children, the children align, and the link is new.
func (e *engine) canVertical(a, b int) bool {
	if a == b {
		return false
	}
	la, lb := e.nodes[a], e.nodes[b]
	if _, ok := la.Children[lb.Root]; !ok {
		return false
	}
	if e.links[[2]int{a, b}] {
		return false
	}
	return e.sim.Similar(la.Children, lb.Children)
}

// mergeVertical links a -> b.
func (e *engine) mergeVertical(a, b int) {
	e.links[[2]int{a, b}] = true
	e.vops++
}

// runStaged performs all possible horizontal merges first, then all
// vertical merges — the schedule Theorem 2 proves minimal.
func (e *engine) runStaged() {
	e.runHorizontal()
	e.runVertical()
}

// runHorizontal performs the horizontal stage, per root label, with a
// shared-child candidate index to avoid the quadratic scan.
func (e *engine) runHorizontal() {
	e.runHorizontalParallel(1)
}

// runHorizontalParallel runs the horizontal stage with a worker pool over
// root labels. Labels merge independently (a horizontal merge only
// involves locals of one label, Section 3.4), and the link set is empty
// before the vertical stage, so workers write disjoint state — this is
// the shared-memory analogue of the paper's 30-machine construction job.
// Per-root merge counts land in index-ordered slots and are summed
// serially, so e.hops is scheduling-independent too.
func (e *engine) runHorizontalParallel(workers int) {
	byRoot := make(map[string][]int)
	for _, i := range e.alive() {
		byRoot[e.nodes[i].Root] = append(byRoot[e.nodes[i].Root], i)
	}
	roots := make([]string, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	if len(e.links) > 0 {
		// Links retarget through the union-find on merge; with links
		// present (only in the random-order experiments) roots are no
		// longer independent, so fall back to the serial schedule.
		workers = 1
	}
	merges := make([]int, len(roots))
	_ = parallel.ForEach(context.Background(), workers, len(roots), func(i int) error {
		merges[i] = e.horizontalFixpoint(byRoot[roots[i]])
		return nil
	})
	for _, m := range merges {
		e.hops += m
	}
}

// runVertical performs the vertical stage. One pass suffices because
// children no longer change.
func (e *engine) runVertical() {
	e.runVerticalParallel(1)
}

// runVerticalParallel runs the vertical stage with a worker pool over
// the live sense clusters. Each link decision canVertical(a, b) reads
// only merge-frozen state — the child sets (fixed once the horizontal
// stage ends) and the pre-existing link set — and within one pass a
// given (a, b) pair is visited at most once (child labels are unique
// per cluster and each b has one root label), so no decision depends on
// another's outcome. Candidate links are therefore computed into
// per-cluster slots concurrently and applied serially in the exact
// (live order, child-label order, byRootLive order) the serial loop
// uses, making the link set and vops count scheduling-independent.
func (e *engine) runVerticalParallel(workers int) {
	byRootLive := make(map[string][]int)
	live := e.alive()
	for _, i := range live {
		byRootLive[e.nodes[i].Root] = append(byRootLive[e.nodes[i].Root], i)
	}
	found := make([][][2]int, len(live))
	_ = parallel.ForEach(context.Background(), workers, len(live), func(i int) error {
		a := live[i]
		var links [][2]int
		for _, y := range e.nodes[a].childLabels() {
			for _, b := range byRootLive[y] {
				if e.canVertical(a, b) {
					links = append(links, [2]int{a, b})
				}
			}
		}
		found[i] = links
		return nil
	})
	for _, links := range found {
		for _, l := range links {
			e.mergeVertical(l[0], l[1])
		}
	}
}

// adoptFragments is a reproduction-scale adaptation applied between the
// horizontal and vertical stages: at web scale, same-sense sentence
// fragments chain-merge transitively through δ shared children, but a
// laptop-scale corpus leaves many short-list fragments that never reach
// the δ=2 threshold, shattering a concept like "company" into hundreds of
// spurious senses. The rule: rank a label's clusters by (mass desc, id
// asc); repeatedly take the first cluster that shares at least one child
// with a cluster ranked above it, and fold it into the first such cluster,
// re-ranking after each fold. Zero-overlap clusters — genuine sense
// candidates such as the industrial reading of "plant" — stay separate.
// Returns the number of adoptions.
//
// Each label is ranked once and the scan never restarts. The scan keeps
// live[:i] pairwise disjoint, and live[i] overlaps none of live[:j], so
// when live[i] folds into live[j] only the grown cluster can now overlap
// another member of that prefix, and only one of live[j+1:i]: those are
// checked against the grown cluster alone, in rank order, before the
// scan resumes at i. Mass is additive
// under absorb, so the grown cluster's new rank is a shift to the left.
// This is the same merge sequence as re-ranking and rescanning from the
// top after every adoption, at O(n) overlap tests per adoption instead of
// O(n²).
func (e *engine) adoptFragments() int {
	byRoot := make(map[string][]int)
	for _, i := range e.alive() {
		byRoot[e.nodes[i].Root] = append(byRoot[e.nodes[i].Root], i)
	}
	roots := make([]string, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	mass := make([]int64, len(e.nodes))
	ahead := func(a, b int) bool {
		if mass[a] != mass[b] {
			return mass[a] > mass[b]
		}
		return a < b
	}
	adoptions := 0
	for _, r := range roots {
		live := byRoot[r]
		for _, i := range live {
			mass[i] = childMass(e.nodes[i].Children)
		}
		sort.Slice(live, func(a, b int) bool { return ahead(live[a], live[b]) })
		// adopt folds live[k] into live[g] (g < k), drops it from the
		// ranking and returns the grown cluster's new rank.
		adopt := func(g, k int) int {
			a := live[g]
			e.mergeHorizontal(a, live[k])
			mass[a] += mass[live[k]]
			adoptions++
			live = append(live[:k], live[k+1:]...)
			for ; g > 0 && ahead(a, live[g-1]); g-- {
				live[g] = live[g-1]
			}
			live[g] = a
			return g
		}
		overlaps := func(a, b int) bool {
			return overlap(e.nodes[live[a]].Children, e.nodes[live[b]].Children) > 0
		}
		for i := 1; i < len(live); {
			j := 0
			for j < i && !overlaps(j, i) {
				j++
			}
			if j == i {
				i++
				continue
			}
			g := adopt(j, i)
			for k := j + 1; k < i; {
				if overlaps(g, k) {
					g = adopt(g, k)
					i--
				} else {
					k++
				}
			}
		}
	}
	return adoptions
}

// horizontalFixpoint merges the given same-root locals until no two are
// similar, returning the number of merges. Candidates are discovered
// through shared children; Property 4 guarantees the fixpoint is
// order-independent.
func (e *engine) horizontalFixpoint(ids []int) int {
	merges := 0
	liveSet := make(map[int]bool, len(ids))
	for _, i := range ids {
		if e.find(i) == i {
			liveSet[i] = true
		}
	}
	for {
		merged := false
		// Build child -> holders index over the live locals.
		index := make(map[string][]int)
		var live []int
		for i := range liveSet {
			live = append(live, i)
		}
		sort.Ints(live)
		for _, i := range live {
			for c := range e.nodes[i].Children {
				index[c] = append(index[c], i)
			}
		}
		keys := make([]string, 0, len(index))
		for c := range index {
			keys = append(keys, c)
		}
		sort.Strings(keys)
		for _, c := range keys {
			holders := index[c]
			for i := 0; i < len(holders); i++ {
				a := e.find(holders[i])
				for j := i + 1; j < len(holders); j++ {
					b := e.find(holders[j])
					if a == b || !liveSet[a] || !liveSet[b] {
						continue
					}
					if e.canHorizontal(a, b) {
						e.mergeNodes(a, b)
						merges++
						delete(liveSet, b)
						merged = true
					}
				}
			}
		}
		if !merged {
			return merges
		}
	}
}

// runRandomOrder applies applicable merge operations in a random order
// until no operation applies. Used to validate Theorem 1 (confluence) and
// Theorem 2 (horizontal-first minimality).
func (e *engine) runRandomOrder(rng *rand.Rand) {
	for {
		live := e.alive()
		type op struct {
			a, b     int
			vertical bool
		}
		var ops []op
		for _, a := range live {
			for _, b := range live {
				if a == b {
					continue
				}
				if a < b && e.canHorizontal(a, b) {
					ops = append(ops, op{a, b, false})
				}
				if e.canVertical(a, b) {
					ops = append(ops, op{a, b, true})
				}
			}
		}
		if len(ops) == 0 {
			return
		}
		o := ops[rng.Intn(len(ops))]
		if o.vertical {
			e.mergeVertical(o.a, o.b)
		} else {
			e.mergeHorizontal(o.a, o.b)
		}
	}
}

// fingerprint canonically serialises the final merge state: the multiset
// of clusters and the links between them, independent of internal ids.
// Two confluent runs produce equal fingerprints.
func (e *engine) fingerprint() string {
	live := e.alive()
	sig := make(map[int]string, len(live))
	for _, i := range live {
		l := e.nodes[i]
		var b strings.Builder
		b.WriteString(l.Root)
		b.WriteString("::")
		for _, c := range l.childLabels() {
			fmt.Fprintf(&b, "%s=%d;", c, l.Children[c])
		}
		sig[i] = b.String()
	}
	var clusters []string
	for _, i := range live {
		clusters = append(clusters, sig[i])
	}
	sort.Strings(clusters)
	var links []string
	for k := range e.links {
		from, to := e.find(k[0]), e.find(k[1])
		links = append(links, sig[from]+" -> "+sig[to])
	}
	sort.Strings(links)
	return strings.Join(clusters, "\n") + "\n#links\n" + strings.Join(links, "\n")
}

// OrderExperiment runs the same local-taxonomy set through the staged
// schedule and through a randomly ordered schedule, returning the
// operation counts and whether the final graphs agree — the empirical
// check of Theorems 1 and 2.
func OrderExperiment(locals []*Local, sim Similarity, seed int64) (stagedOps, randomOps int, same bool) {
	a := newEngine(locals, sim)
	a.runStaged()
	b := newEngine(locals, sim)
	b.runRandomOrder(rand.New(rand.NewSource(seed)))
	return a.hops + a.vops, b.hops + b.vops, a.fingerprint() == b.fingerprint()
}

package experiments

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/mmap"
	"repro/internal/prob"
)

// StorageResult compares the two storage backends of the graph layer —
// the mutable Builder and the frozen CSR view — plus the two ways of
// loading a snapshot (copying decode and memory map). The CI
// bench-compare job gates on the speedups being > 1 and on
// ResultsIdentical: the frozen view must be strictly faster AND answer
// every query exactly like the builder it was frozen from.
type StorageResult struct {
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`

	// ns/op over the same operation mix on each backend.
	LookupBuilderNs      float64 `json:"lookup_builder_ns"`
	LookupFrozenNs       float64 `json:"lookup_frozen_ns"`
	DescendantsBuilderNs float64 `json:"descendants_builder_ns"`
	DescendantsFrozenNs  float64 `json:"descendants_frozen_ns"`
	HasPathBuilderNs     float64 `json:"haspath_builder_ns"`
	HasPathFrozenNs      float64 `json:"haspath_frozen_ns"`

	// Snapshot size on disk.
	SaveV2Bytes int `json:"save_v2_bytes"`

	LookupSpeedup      float64 `json:"lookup_speedup"`
	DescendantsSpeedup float64 `json:"descendants_speedup"`
	HasPathSpeedup     float64 `json:"haspath_speedup"`

	// Memory-mapped serving (FORMATS.md rev-3 layout): the copying
	// loader decodes the same file onto the heap; the mapped loader
	// validates the header and points the CSR arrays and label arena
	// into the mapping. First-query cost is the cold batch right after
	// each load — the page-fault bill mmap defers from load time to
	// first touch. The GC numbers show what each resident graph costs a
	// forced collection: the mapped arrays are off-heap, so the
	// collector neither scans nor retains them.
	LoadCopyMillis       float64 `json:"load_copy_ms"`
	LoadMmapMillis       float64 `json:"load_mmap_ms"`
	MmapLoadSpeedup      float64 `json:"mmap_load_speedup"`
	MmapZeroCopy         bool    `json:"mmap_zero_copy"`
	FirstQueryCopyMicros float64 `json:"first_query_copy_us"`
	FirstQueryMmapMicros float64 `json:"first_query_mmap_us"`
	GCPauseCopyMicros    float64 `json:"gc_pause_copy_us"`
	GCPauseMmapMicros    float64 `json:"gc_pause_mmap_us"`
	HeapCopyBytes        uint64  `json:"heap_copy_bytes"`
	HeapMmapBytes        uint64  `json:"heap_mmap_bytes"`

	// ResultsIdentical is true when the frozen CSR view and the builder
	// answer the whole Reader surface plus the ranked query surfaces
	// identically on the corpus-built taxonomy.
	ResultsIdentical bool `json:"results_identical"`
}

// storageBenchGraph is the measurement substrate: a taxonomy-shaped DAG
// large enough (≈105k nodes) that the working set outgrows L1/L2, the
// regime the CSR layout exists for. The corpus-built graph stays the
// witness for ResultsIdentical; timings need the bigger graph to be
// insensitive to cache luck.
func storageBenchGraph() *graph.Builder {
	rng := rand.New(rand.NewSource(3))
	b := graph.NewBuilder()
	var roots, mids []graph.NodeID
	for i := 0; i < 200; i++ {
		roots = append(roots, b.Intern(fmt.Sprintf("root%d", i)))
	}
	for i := 0; i < 5000; i++ {
		m := b.Intern(fmt.Sprintf("mid%d", i))
		mids = append(mids, m)
		b.AddEdge(roots[rng.Intn(len(roots))], m, int64(rng.Intn(20)+1), rng.Float64())
	}
	for i := 0; i < 100000; i++ {
		l := b.Intern(fmt.Sprintf("leaf%d", i))
		b.AddEdge(mids[rng.Intn(len(mids))], l, int64(rng.Intn(20)+1), rng.Float64())
		if rng.Intn(4) == 0 {
			b.AddEdge(roots[rng.Intn(len(roots))], l, 1, rng.Float64())
		}
	}
	return b
}

// nsPerOp times fn (which performs ops operations) over reps runs and
// returns the fastest per-op time in nanoseconds.
func nsPerOp(reps, ops int, fn func()) float64 {
	return minSeconds(reps, fn) * 1e9 / float64(ops)
}

// readerFingerprint renders the full Reader surface of g into one
// comparable string: shape, per-node adjacency, closures and paths on a
// deterministic node sample, and the derived node classes and levels.
func readerFingerprint(g graph.Reader, sample int) string {
	var sb strings.Builder
	n := g.NumNodes()
	fmt.Fprintf(&sb, "nodes=%d edges=%d\n", n, g.NumEdges())
	fmt.Fprintf(&sb, "roots=%v\nconcepts=%d\ninstances=%d\n",
		idLabels(g, g.Roots()), len(g.Concepts()), len(g.Instances()))
	levels, err := g.TopoLevels()
	fmt.Fprintf(&sb, "levels=%d err=%v\n", len(levels), err)
	if n == 0 {
		return sb.String()
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < sample; i++ {
		id := graph.NodeID(rng.Intn(n))
		other := graph.NodeID(rng.Intn(n))
		fmt.Fprintf(&sb, "%d:%s kind=%v out=%v in=%v desc=%v anc=%v path(%d)=%v\n",
			id, g.Label(id), g.Kind(id), g.Children(id), g.Parents(id),
			g.Descendants(id), g.Ancestors(id), other, g.HasPath(id, other))
	}
	return sb.String()
}

func idLabels(g graph.Reader, ids []graph.NodeID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = g.Label(id)
	}
	return out
}

// rankedFingerprint renders the ranked query surfaces of a typicality
// engine bound to g: top instances per concept, top concepts per
// instance sample.
func rankedFingerprint(g graph.Reader, t *prob.Typicality, sample int) string {
	var sb strings.Builder
	concepts := g.Concepts()
	for i := 0; i < len(concepts) && i < sample; i++ {
		fmt.Fprintf(&sb, "inst(%s)=%v\n", g.Label(concepts[i]), prob.TopK(t.InstancesOf(concepts[i]), 10))
	}
	instances := g.Instances()
	stride := 1
	if len(instances) > sample {
		stride = len(instances) / sample
	}
	for i := 0; i < len(instances); i += stride {
		fmt.Fprintf(&sb, "conc(%s)=%v\n", g.Label(instances[i]), prob.TopK(t.ConceptsOf(instances[i]), 10))
	}
	return sb.String()
}

// StorageExp measures the Builder-vs-Frozen read path and the
// copy-vs-mmap snapshot load, and verifies the two backends are
// observably identical on the corpus-built taxonomy.
func (s *Setup) StorageExp() (*StorageResult, string) {
	res := &StorageResult{}
	const reps = 5

	b := storageBenchGraph()
	f := b.Freeze()
	res.Nodes, res.Edges = f.NumNodes(), f.NumEdges()

	// Lookup: the same label mix (presents plus misses) on each backend.
	rng := rand.New(rand.NewSource(2))
	labels := make([]string, 1024)
	for i := range labels {
		if i%8 == 7 {
			labels[i] = fmt.Sprintf("miss%d", i)
			continue
		}
		labels[i] = f.Label(graph.NodeID(rng.Intn(f.NumNodes())))
	}
	const lookupOps = 200000
	res.LookupBuilderNs = nsPerOp(reps, lookupOps, func() {
		for i := 0; i < lookupOps; i++ {
			b.Lookup(labels[i%len(labels)])
		}
	})
	res.LookupFrozenNs = nsPerOp(reps, lookupOps, func() {
		for i := 0; i < lookupOps; i++ {
			f.Lookup(labels[i%len(labels)])
		}
	})

	// Closure traversal from the wide roots, and reachability probes
	// root -> random node (hits and misses mixed).
	const closureOps = 400
	res.DescendantsBuilderNs = nsPerOp(reps, closureOps, func() {
		for i := 0; i < closureOps; i++ {
			b.Descendants(graph.NodeID(i % 200))
		}
	})
	res.DescendantsFrozenNs = nsPerOp(reps, closureOps, func() {
		for i := 0; i < closureOps; i++ {
			f.Descendants(graph.NodeID(i % 200))
		}
	})
	targets := make([]graph.NodeID, 512)
	for i := range targets {
		targets[i] = graph.NodeID(rng.Intn(f.NumNodes()))
	}
	const pathOps = 512
	res.HasPathBuilderNs = nsPerOp(reps, pathOps, func() {
		for i := 0; i < pathOps; i++ {
			b.HasPath(graph.NodeID(i%200), targets[i%len(targets)])
		}
	})
	res.HasPathFrozenNs = nsPerOp(reps, pathOps, func() {
		for i := 0; i < pathOps; i++ {
			f.HasPath(graph.NodeID(i%200), targets[i%len(targets)])
		}
	})

	var snap bytes.Buffer
	if err := f.Save(&snap); err != nil {
		panic(err)
	}
	res.SaveV2Bytes = snap.Len()

	// Mmap vs copy, measured from a real file so the mapped loader takes
	// its production path (page cache, not a bytes.Reader).
	dir, err := os.MkdirTemp("", "probase-storage-bench")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	benchPath := filepath.Join(dir, "bench.pbc2")
	if err := os.WriteFile(benchPath, snap.Bytes(), 0o644); err != nil {
		panic(err)
	}
	res.LoadCopyMillis = minSeconds(reps, func() {
		fh, err := os.Open(benchPath)
		if err != nil {
			panic(err)
		}
		if _, err := graph.LoadFrozen(bufio.NewReader(fh)); err != nil {
			panic(err)
		}
		fh.Close()
	}) * 1e3
	res.LoadMmapMillis = minSeconds(reps, func() {
		m, err := mmap.Open(benchPath)
		if err != nil {
			panic(err)
		}
		g, err := graph.LoadMapped(m.Bytes(), m)
		if err != nil {
			panic(err)
		}
		g.Close()
	}) * 1e3

	// Cold first-query batch and GC cost, one fresh load per mode. The
	// copy graph is measured first and dropped before the mapped
	// measurements so the heap numbers describe one resident graph each.
	firstQueryMicros := func(g graph.Reader) float64 {
		start := time.Now()
		touched := 0
		for i := 0; i < closureOps; i++ {
			touched += len(g.Descendants(graph.NodeID(i % 200)))
		}
		if touched == 0 {
			panic("cold query batch traversed nothing")
		}
		return time.Since(start).Seconds() * 1e6
	}
	gcCost := func(g graph.Reader) (heap uint64, pauseMicros float64) {
		runtime.GC()
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)
		runtime.GC()
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(g)
		return m1.HeapAlloc, float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e3
	}
	fh, err := os.Open(benchPath)
	if err != nil {
		panic(err)
	}
	gcopy, err := graph.LoadFrozen(bufio.NewReader(fh))
	if err != nil {
		panic(err)
	}
	fh.Close()
	res.FirstQueryCopyMicros = firstQueryMicros(gcopy)
	res.HeapCopyBytes, res.GCPauseCopyMicros = gcCost(gcopy)
	gcopy = nil
	_ = gcopy
	m, err := mmap.Open(benchPath)
	if err != nil {
		panic(err)
	}
	gm, err := graph.LoadMapped(m.Bytes(), m)
	if err != nil {
		panic(err)
	}
	res.MmapZeroCopy = gm.Mapped()
	res.FirstQueryMmapMicros = firstQueryMicros(gm)
	res.HeapMmapBytes, res.GCPauseMmapMicros = gcCost(gm)
	gm.Close()

	res.LookupSpeedup = res.LookupBuilderNs / res.LookupFrozenNs
	res.DescendantsSpeedup = res.DescendantsBuilderNs / res.DescendantsFrozenNs
	res.HasPathSpeedup = res.HasPathBuilderNs / res.HasPathFrozenNs
	res.MmapLoadSpeedup = res.LoadCopyMillis / res.LoadMmapMillis

	// Equivalence on the corpus-built taxonomy: thaw the frozen graph
	// back into a builder and compare the whole Reader surface plus the
	// ranked query surfaces through a rebound typicality engine.
	fg := s.PB.Graph
	bg := graph.NewBuilderFrom(fg)
	res.ResultsIdentical = readerFingerprint(fg, 300) == readerFingerprint(bg, 300)
	if res.ResultsIdentical {
		rebound, err := s.PB.Rebind(bg)
		if err != nil {
			panic(err)
		}
		res.ResultsIdentical =
			rankedFingerprint(fg, s.PB.Typicality(), 100) == rankedFingerprint(bg, rebound.Typicality(), 100)
	}

	rows := [][]string{
		{"lookup ns/op", fmt.Sprintf("%.1f", res.LookupBuilderNs), fmt.Sprintf("%.1f", res.LookupFrozenNs), fmt.Sprintf("%.2fx", res.LookupSpeedup)},
		{"descendants ns/op", fmt.Sprintf("%.0f", res.DescendantsBuilderNs), fmt.Sprintf("%.0f", res.DescendantsFrozenNs), fmt.Sprintf("%.2fx", res.DescendantsSpeedup)},
		{"haspath ns/op", fmt.Sprintf("%.0f", res.HasPathBuilderNs), fmt.Sprintf("%.0f", res.HasPathFrozenNs), fmt.Sprintf("%.2fx", res.HasPathSpeedup)},
		{"snapshot bytes", "-", itoa(res.SaveV2Bytes), "-"},
		{"load ms (copy vs mmap)", fmt.Sprintf("%.2f", res.LoadCopyMillis), fmt.Sprintf("%.2f", res.LoadMmapMillis), fmt.Sprintf("%.2fx", res.MmapLoadSpeedup)},
		{"first-query µs", fmt.Sprintf("%.0f", res.FirstQueryCopyMicros), fmt.Sprintf("%.0f", res.FirstQueryMmapMicros), "-"},
		{"gc pause µs", fmt.Sprintf("%.0f", res.GCPauseCopyMicros), fmt.Sprintf("%.0f", res.GCPauseMmapMicros), "-"},
		{"heap bytes", fmt.Sprintf("%d", res.HeapCopyBytes), fmt.Sprintf("%d", res.HeapMmapBytes), "-"},
	}
	title := fmt.Sprintf("Storage backends: builder vs frozen CSR on %d nodes / %d edges (results_identical=%v)",
		res.Nodes, res.Edges, res.ResultsIdentical)
	return res, table(title, []string{"metric", "builder/copy", "frozen/mmap", "speedup"}, rows)
}

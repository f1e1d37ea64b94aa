package experiments

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/mmap"
)

// StorageResult compares the two ways of loading a graph snapshot —
// copying decode and memory map — on one taxonomy-shaped graph. The CI
// bench-compare job gates on the mapped load being faster, zero-copy
// and lighter on the heap.
type StorageResult struct {
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`

	// Snapshot size on disk.
	SaveV2Bytes int `json:"save_v2_bytes"`

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
}

// storageBenchGraph is the measurement substrate: a taxonomy-shaped DAG
// large enough (≈105k nodes) that the working set outgrows L1/L2, so
// load and first-query timings are insensitive to cache luck.
func storageBenchGraph() *graph.Frozen {
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
	return b.Freeze()
}

// StorageExp measures the copy-vs-mmap snapshot load: load time,
// the cold first-query batch after each load, and what each resident
// graph costs the garbage collector.
func (s *Setup) StorageExp() (*StorageResult, string) {
	res := &StorageResult{}
	const reps = 5

	f := storageBenchGraph()
	res.Nodes, res.Edges = f.NumNodes(), f.NumEdges()

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
	const closureOps = 400
	firstQueryMicros := func(g *graph.Frozen) float64 {
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
	gcCost := func(g *graph.Frozen) (heap uint64, pauseMicros float64) {
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

	res.MmapLoadSpeedup = res.LoadCopyMillis / res.LoadMmapMillis

	rows := [][]string{
		{"snapshot bytes", "-", itoa(res.SaveV2Bytes), "-"},
		{"load ms (copy vs mmap)", fmt.Sprintf("%.2f", res.LoadCopyMillis), fmt.Sprintf("%.2f", res.LoadMmapMillis), fmt.Sprintf("%.2fx", res.MmapLoadSpeedup)},
		{"first-query µs", fmt.Sprintf("%.0f", res.FirstQueryCopyMicros), fmt.Sprintf("%.0f", res.FirstQueryMmapMicros), "-"},
		{"gc pause µs", fmt.Sprintf("%.0f", res.GCPauseCopyMicros), fmt.Sprintf("%.0f", res.GCPauseMmapMicros), "-"},
		{"heap bytes", fmt.Sprintf("%d", res.HeapCopyBytes), fmt.Sprintf("%d", res.HeapMmapBytes), "-"},
	}
	title := fmt.Sprintf("Snapshot loading: copy vs mmap on %d nodes / %d edges", res.Nodes, res.Edges)
	return res, table(title, []string{"metric", "copy", "mmap", "speedup"}, rows)
}

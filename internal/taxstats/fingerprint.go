package taxstats

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/graph"
)

// Fingerprint hashes the logical content of a taxonomy graph — labels
// in node order, then every node's out-edges (target, count,
// plausibility bits) in To-sorted order — into a 16-hex-digit FNV-1a
// digest. It depends only on the graph's content, never on how the
// Frozen is backed, so a freshly frozen graph, its heap-loaded and its
// memory-mapped snapshot fingerprint identically, while any change to a
// label, an edge, a count or a score changes the digest. The serving
// layer reports it on /v1/healthz so two replicas can be checked for
// serving the same taxonomy with one string compare.
func Fingerprint(g *graph.Frozen) string {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	n := g.NumNodes()
	u64(uint64(n))
	for id := 0; id < n; id++ {
		label := g.Label(graph.NodeID(id))
		u64(uint64(len(label)))
		h.Write([]byte(label))
	}
	for id := 0; id < n; id++ {
		edges := g.Children(graph.NodeID(id))
		u64(uint64(len(edges)))
		for _, e := range edges {
			u64(uint64(e.To))
			u64(uint64(e.Count))
			u64(math.Float64bits(e.Plausibility))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

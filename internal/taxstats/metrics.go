package taxstats

import "repro/internal/obs"

// Register exposes a profile provider as probase_snapshot_* gauges.
// Every gauge evaluates get() at scrape time, so swapping the profile
// behind the provider (snapshot hot-swap) is all
// it takes to refresh the whole series — no re-registration. get may
// return nil before the first profile lands; all gauges read 0 then.
//
// The node and edge counts are deliberately not registered here: the
// server already exposes probase_snapshot_nodes/_edges directly off the
// live graph, and double-registering the families would panic.
func Register(reg *obs.Registry, get func() *Profile) {
	p := func(f func(p *Profile) float64) func() float64 {
		return func() float64 {
			if pr := get(); pr != nil {
				return f(pr)
			}
			return 0
		}
	}
	reg.GaugeFunc("probase_snapshot_concepts",
		"Concept nodes in the served taxonomy snapshot.",
		p(func(pr *Profile) float64 { return float64(pr.Concepts) }))
	reg.GaugeFunc("probase_snapshot_instances",
		"Instance nodes in the served taxonomy snapshot.",
		p(func(pr *Profile) float64 { return float64(pr.Instances) }))
	reg.GaugeFunc("probase_snapshot_roots",
		"Root concepts (no parents) in the served snapshot.",
		p(func(pr *Profile) float64 { return float64(pr.Roots) }))
	reg.GaugeFunc("probase_snapshot_orphans",
		"Isolated nodes (no parents, no children) in the served snapshot.",
		p(func(pr *Profile) float64 { return float64(pr.Orphans) }))
	reg.GaugeFunc("probase_snapshot_label_bytes",
		"Total bytes of node labels in the served snapshot.",
		p(func(pr *Profile) float64 { return float64(pr.LabelBytes) }))
	reg.GaugeFunc("probase_snapshot_max_depth",
		"Deepest concept level in the served snapshot.",
		p(func(pr *Profile) float64 { return float64(pr.MaxDepth) }))
	reg.GaugeFunc("probase_snapshot_topo_levels",
		"Topological levels in the served snapshot's DAG.",
		p(func(pr *Profile) float64 { return float64(pr.TopoLevels) }))

	dists := []struct {
		name string
		sel  func(pr *Profile) *ScoreDist
		help string
	}{
		{"plausibility", func(pr *Profile) *ScoreDist { return &pr.Plausibility },
			"edge plausibility P(x,y)"},
		{"typicality", func(pr *Profile) *ScoreDist { return &pr.Typicality },
			"abstraction typicality T(x|i)"},
		{"entropy", func(pr *Profile) *ScoreDist { return &pr.Entropy },
			"per-instance ambiguity entropy (bits)"},
	}
	stats := []struct {
		name string
		sel  func(d *ScoreDist) float64
	}{
		{"count", func(d *ScoreDist) float64 { return float64(d.Count) }},
		{"mean", func(d *ScoreDist) float64 { return d.Mean }},
		{"p50", func(d *ScoreDist) float64 { return d.P50 }},
		{"p90", func(d *ScoreDist) float64 { return d.P90 }},
		{"p99", func(d *ScoreDist) float64 { return d.P99 }},
		{"zero_mass", func(d *ScoreDist) float64 { return d.ZeroMass }},
		{"one_mass", func(d *ScoreDist) float64 { return d.OneMass }},
	}
	for _, dist := range dists {
		for _, st := range stats {
			dist, st := dist, st
			reg.GaugeFunc("probase_snapshot_score",
				"Score-distribution summary statistics of the served snapshot, keyed by dist ("+
					"plausibility, typicality, entropy) and stat.",
				p(func(pr *Profile) float64 { return st.sel(dist.sel(pr)) }),
				obs.L("dist", dist.name), obs.L("stat", st.name))
		}
	}
}

package taxstats

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

func TestRegisterExposesAndRefreshes(t *testing.T) {
	g := companyGraph()
	p1, err := Compute(g, mustTypicality(t, g), Options{})
	if err != nil {
		t.Fatal(err)
	}

	var cur atomic.Pointer[Profile]
	reg := obs.NewRegistry()
	Register(reg, cur.Load)

	// Nil profile: everything scrapes as 0 rather than panicking.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "probase_snapshot_concepts 0") {
		t.Errorf("nil-profile scrape missing zero gauge:\n%s", sb.String())
	}

	cur.Store(p1)
	sb.Reset()
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"probase_snapshot_concepts 3",
		"probase_snapshot_instances 4",
		"probase_snapshot_roots 2",
		"probase_snapshot_orphans 1",
		"probase_snapshot_max_depth 2",
		"probase_snapshot_topo_levels 3",
		`probase_snapshot_score{dist="plausibility",stat="count"} 8`,
		`probase_snapshot_score{dist="entropy",stat="count"} 3`,
		`probase_snapshot_score{dist="typicality",stat="p50"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}

	// Swap the profile behind the provider: the same registry scrapes
	// the new values with no re-registration.
	b := graph.NewBuilderFrom(companyGraph())
	b.AddEdge(b.Lookup("company"), b.Intern("Acme"), 3, 0.6)
	g2 := b.Freeze()
	p2, err := Compute(g2, mustTypicality(t, g2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cur.Store(p2)
	sb.Reset()
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "probase_snapshot_instances 5") {
		t.Errorf("scrape did not refresh after profile swap:\n%s", sb.String())
	}
}

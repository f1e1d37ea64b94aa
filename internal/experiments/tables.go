package experiments

import (
	"strings"

	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/prob"
)

// Table1Row is one taxonomy's concept-space size.
type Table1Row struct {
	Name     string
	Concepts int
}

// Table1 reproduces Table 1: the scale of open-domain taxonomies in
// number of concepts. Probase's count is the number of concept nodes in
// the built taxonomy.
func (s *Setup) Table1() ([]Table1Row, string) {
	probaseConcepts := len(s.PB.Graph.Concepts())
	rows := []Table1Row{
		{"Freebase", s.Freebase.NumConcepts()},
		{"WordNet", s.WordNet.NumConcepts()},
		{"WikiTaxonomy", s.WikiTax.NumConcepts()},
		{"YAGO", s.YAGO.NumConcepts()},
		{"Probase", probaseConcepts},
	}
	cells := make([][]string, len(rows))
	for i, r := range rows {
		cells[i] = []string{r.Name, itoa(r.Concepts)}
	}
	return rows, table("Table 1: scale of open-domain taxonomies (scaled reproduction)",
		[]string{"Taxonomy", "Concepts"}, cells)
}

// Table4 reproduces the concept-subconcept relationship space.
func (s *Setup) Table4() ([]eval.HierarchyMetrics, string, error) {
	entries := []struct {
		name string
		g    *graph.Frozen
	}{
		{"WordNet", s.WordNet.Graph},
		{"WikiTaxonomy", s.WikiTax.Graph},
		{"YAGO", s.YAGO.Graph},
		{"Freebase", s.Freebase.Graph},
		{"Probase", s.PB.Graph},
	}
	var rows []eval.HierarchyMetrics
	var cells [][]string
	for _, e := range entries {
		m, err := eval.Hierarchy(e.name, e.g)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, m)
		cells = append(cells, []string{
			m.Name, itoa(m.IsAPairs), f2(m.AvgChildren), f2(m.AvgParents),
			f3(m.AvgLevel), itoa(m.MaxLevel),
		})
	}
	return rows, table("Table 4: concept-subconcept relationship space",
		[]string{"Taxonomy", "isA pairs", "Avg children", "Avg parents", "Avg level", "Max level"}, cells), nil
}

// Table5Row is one benchmark concept with its size and typical instances.
type Table5Row struct {
	Concept   string
	Instances int
	Typical   []string
}

// Table5 reproduces the benchmark-concept table: instance counts in Γ and
// the top typical instances by T(i|x).
func (s *Setup) Table5() ([]Table5Row, string) {
	var rows []Table5Row
	var cells [][]string
	for _, c := range eval.BenchmarkConcepts {
		size := len(s.PB.Store.SubsOf(c))
		top := s.PB.InstancesOf(c, 3)
		labels := make([]string, len(top))
		for i, r := range top {
			labels[i] = r.Label
		}
		rows = append(rows, Table5Row{Concept: c, Instances: size, Typical: labels})
		cells = append(cells, []string{c, itoa(size), strings.Join(labels, ", ")})
	}
	return rows, table("Table 5: benchmark concepts and typical instances",
		[]string{"Concept", "# extracted", "Typical instances"}, cells)
}

// topInstances is a helper shared with the figures.
func topLabels(rs []prob.Ranked) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Label
	}
	return out
}

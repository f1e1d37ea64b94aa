package prob_test

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/prob"
)

// ExampleNew runs the Algorithm 3 reachability DP with an explicit
// worker count. The reach table is byte-identical at every worker
// count, so the parallel run answers exactly what the serial one would.
func ExampleNew() {
	g := graph.NewBuilder()
	company := g.Intern("company")
	it := g.Intern("it company")
	ms := g.Intern("Microsoft")
	g.AddEdge(company, it, 20, 0.9)
	g.AddEdge(it, ms, 30, 0.8)

	fz := g.Freeze()
	serial, _ := prob.New(fz, prob.Options{Workers: 1})
	pooled, _ := prob.New(fz, prob.Options{Workers: 4})
	fmt.Printf("P(company, Microsoft) = %.2f\n", pooled.Reach(company, ms))
	fmt.Println("identical to serial:", pooled.Reach(company, ms) == serial.Reach(company, ms))
	// Output:
	// P(company, Microsoft) = 0.72
	// identical to serial: true
}

// ExampleTypicality_InstancesOf shows Eq. 4 at work: indirect evidence
// through a sub-concept promotes Microsoft over IBM despite fewer direct
// sightings.
func ExampleTypicality_InstancesOf() {
	g := graph.NewBuilder()
	company := g.Intern("company")
	it := g.Intern("it company")
	ibm := g.Intern("IBM")
	ms := g.Intern("Microsoft")
	g.AddEdge(company, ibm, 50, 0.99)
	g.AddEdge(company, ms, 40, 0.99)
	g.AddEdge(company, it, 20, 0.95)
	g.AddEdge(it, ms, 30, 0.99)

	ty, err := prob.NewTypicality(g.Freeze())
	if err != nil {
		panic(err)
	}
	for _, r := range ty.InstancesOf(company) {
		fmt.Printf("%s %.3f\n", r.Label, r.Score)
	}
	// Output:
	// Microsoft 0.578
	// IBM 0.422
}

// ExampleTypicality_ConceptsOfSet reproduces the paper's Example 1: a
// set of instances picks out the tightest concept describing all of them.
func ExampleTypicality_ConceptsOfSet() {
	g := graph.NewBuilder()
	country := g.Intern("country")
	bric := g.Intern("BRIC country")
	for _, c := range []string{"China", "India", "Brazil", "Russia"} {
		id := g.Intern(c)
		g.AddEdge(country, id, 20, 0.99)
		g.AddEdge(bric, id, 15, 0.99)
	}
	g.AddEdge(country, g.Intern("USA"), 80, 0.99)
	g.AddEdge(country, bric, 10, 0.9)

	ty, err := prob.NewTypicality(g.Freeze())
	if err != nil {
		panic(err)
	}
	set := []graph.NodeID{g.Lookup("China"), g.Lookup("India"), g.Lookup("Brazil")}
	ranked, _ := ty.ConceptsOfSet(set)
	fmt.Println(ranked[0].Label)
	// Output:
	// BRIC country
}

// Placement tradeoff: sweeps the weight ω between management cost (hubs
// close to clients) and synchronization cost (hubs close to each other) and
// prints the Fig. 9(b)-style tradeoff curve with the number of smooth nodes
// the optimizer deploys at each point.
//
//	go run ./examples/placement-tradeoff
package main

import (
	"fmt"
	"log"

	splicer "github.com/splicer-pcn/splicer"
)

func main() {
	spec := splicer.Spec{
		Seed:     21,
		Topology: splicer.TopologySpec{Type: "watts-strogatz", Nodes: 100},
		// Placement reads only the graph. BuildGraph generates no trace,
		// but the spec must still name a valid workload.
		Workload: splicer.WorkloadSpec{Type: "synthetic", Rate: 1, Duration: 1},
	}
	g, err := spec.BuildGraph()
	if err != nil {
		log.Fatal(err)
	}
	candidates := splicer.TopDegreeNodes(g, 10)
	candSet := map[splicer.NodeID]bool{}
	for _, c := range candidates {
		candSet[c] = true
	}
	var clients []splicer.NodeID
	for i := 0; i < g.NumNodes(); i++ {
		if !candSet[splicer.NodeID(i)] {
			clients = append(clients, splicer.NodeID(i))
		}
	}

	fmt.Println("omega      hubs   mgmt-cost   sync-cost   balance-cost")
	for _, omega := range []float64{0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 1.28, 2.56} {
		plan, err := splicer.PlaceHubs(g, clients, candidates, omega)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8.2f %6d %11.3f %11.3f %14.3f\n",
			omega, len(plan.Hubs), plan.ManagementCost, plan.SyncCost, plan.TotalCost)
	}
	fmt.Println()
	fmt.Println("small omega  -> management-dominated: many hubs near clients")
	fmt.Println("large omega  -> synchronization-dominated: few, central hubs")
}

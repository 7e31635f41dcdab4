// IoT payments: the paper's motivating large-scale low-power scenario.
// Thousands of lightweight clients (mobile/IoT devices) outsource route
// computation to a handful of optimally placed hubs; the example prints the
// placement, the per-hub client load, and the routing performance against
// Spider-style source routing, where every constrained device must compute
// its own routes over the full topology.
//
//	go run ./examples/iot-payments
package main

import (
	"fmt"
	"log"

	splicer "github.com/splicer-pcn/splicer"
)

func main() {
	spec := splicer.Spec{
		Seed:     11,
		Topology: splicer.TopologySpec{Type: "watts-strogatz", Nodes: 2000},
		Workload: splicer.WorkloadSpec{
			Type:                "synthetic",
			Rate:                250,
			Duration:            6,
			ValueScale:          0.5, // IoT micro-payments
			ZipfSkew:            1.0, // a few gateways talk a lot
			CirculationFraction: 0.2,
		},
		// Splicer places hubs with the balance-cost optimizer over the 20
		// best-connected candidates.
		Routing: splicer.RoutingSpec{HubCandidates: 20, PlacementOmega: 0.05},
	}

	// The placement Splicer computes at startup, solved standalone over the
	// same graph: candidates are the top-degree nodes, clients the rest.
	g, _, err := spec.Build()
	if err != nil {
		log.Fatal(err)
	}
	candidates := splicer.TopDegreeNodes(g, spec.Routing.HubCandidates)
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
	plan, err := splicer.PlaceHubs(g, clients, candidates, spec.Routing.PlacementOmega)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d IoT clients, %d channels\n", g.NumNodes(), g.NumEdges())
	fmt.Printf("hubs placed: %v\n", plan.Hubs)
	load := map[splicer.NodeID]int{}
	for _, h := range plan.AssignedHub {
		load[h]++
	}
	for _, h := range plan.Hubs {
		fmt.Printf("  hub %4d manages %4d clients\n", h, load[h])
	}

	// Hub routing against source routing on the same network and trace:
	// under Spider each device computes its own routes.
	for _, scheme := range []splicer.Scheme{splicer.Splicer, splicer.Spider} {
		res, err := spec.RunScheme(scheme)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s TSR %.2f%%, throughput %.2f%%, mean delay %.0f ms\n",
			scheme.String()+":", 100*res.TSR, 100*res.NormalizedThroughput, 1000*res.MeanDelay)
	}
}

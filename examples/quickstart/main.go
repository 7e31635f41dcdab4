// Quickstart: declare a Lightning-like network and a payment workload as
// one spec, let Splicer place hubs and route the workload, and print the
// evaluation metrics.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	splicer "github.com/splicer-pcn/splicer"
)

func main() {
	spec := splicer.Spec{
		Seed:   42,
		Scheme: "Splicer",
		// A 100-node small-world channel graph with heavy-tailed channel
		// sizes calibrated to the Lightning Network dataset (min 10 /
		// median 152 / mean 403 tokens).
		Topology: splicer.TopologySpec{Type: "watts-strogatz", Nodes: 100},
		// Eight seconds of Poisson payments at 120 tx/s with credit-card-like
		// values, Zipf-skewed endpoints and a deadlock-inducing circulation
		// component.
		Workload: splicer.WorkloadSpec{
			Type: "synthetic", Rate: 120, Duration: 8,
			ZipfSkew: 0.8, CirculationFraction: 0.2,
		},
		// The empty routing block keeps the paper's defaults: k = 5
		// edge-disjoint widest paths, LIFO queues, τ = 200 ms price updates,
		// hub placement by the balance-cost optimizer.
	}
	res, err := spec.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("transactions:          %d generated, %d completed\n", res.Generated, res.Completed)
	fmt.Printf("success ratio (TSR):   %.2f%%\n", 100*res.TSR)
	fmt.Printf("normalized throughput: %.2f%%\n", 100*res.NormalizedThroughput)
	fmt.Printf("mean payment delay:    %.1f ms\n", 1000*res.MeanDelay)
}

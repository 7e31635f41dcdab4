// Deadlock demo: reproduces the local-deadlock scenario of the paper's
// Fig. 1(b/c). Three parties pay each other at imbalanced rates (A→B at 1,
// C→B at 2, B→A at 2 tokens/sec). Under naive shortest-path routing the
// intermediary's channel drains — funds converge at one end and payments
// that SHOULD be routable start failing. Splicer's imbalance prices throttle
// the draining direction and keep the network nearly deadlock-free.
//
//	go run ./examples/deadlock
package main

import (
	"fmt"
	"log"

	splicer "github.com/splicer-pcn/splicer"
)

// deadlockSpec is a tight-channel network (20% of Lightning scale) where the
// circulation pattern dominates the workload: the exact conditions of §II-B.
func deadlockSpec() splicer.Spec {
	return splicer.Spec{
		Seed:     7,
		Topology: splicer.TopologySpec{Type: "watts-strogatz", Nodes: 50, ChannelScale: 0.2},
		Workload: splicer.WorkloadSpec{
			Type:                "synthetic",
			Rate:                60,
			Duration:            6,
			ValueScale:          1.5,
			ZipfSkew:            0.8,
			CirculationFraction: 0.5, // half the trace is the Fig. 1(b) cycle
		},
	}
}

func main() {
	spec := deadlockSpec()
	naive, err := spec.RunScheme(splicer.ShortestPath)
	if err != nil {
		log.Fatal(err)
	}
	spl, err := spec.RunScheme(splicer.Splicer)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("workload: 50% circulation at the imbalanced Fig. 1(b) rates, tight channels")
	fmt.Printf("%-22s %10s %12s %18s\n", "scheme", "TSR", "throughput", "drained channels")
	fmt.Printf("%-22s %9.2f%% %11.2f%% %18d\n",
		"naive shortest-path", 100*naive.TSR, 100*naive.NormalizedThroughput, naive.DeadlockedChannels)
	fmt.Printf("%-22s %9.2f%% %11.2f%% %18d\n",
		"Splicer", 100*spl.TSR, 100*spl.NormalizedThroughput, spl.DeadlockedChannels)
	fmt.Println()
	if spl.TSR > naive.TSR {
		fmt.Println("Splicer's rate-based routing kept the circulation from deadlocking the network.")
	} else {
		fmt.Println("unexpected: Splicer did not improve on naive routing — check parameters")
	}
}

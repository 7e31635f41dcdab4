// Churn demo: a payment channel network losing and gaining nodes while
// payments flow. Splicer's hub placement is computed once at startup — so
// when churn kills a hub, every client it managed is orphaned and their
// payments start failing. Re-running placement online (every second here)
// re-homes the orphans onto surviving hubs and recovers most of the lost
// success ratio.
//
//	go run ./examples/churn
package main

import (
	"fmt"
	"log"

	splicer "github.com/splicer-pcn/splicer"
)

// churnSpec is an 80-node network under aggressive churn: ~2 joins, 2
// leaves, 2 channel opens, 2 closes and 2 top-ups per second, so a sizable
// fraction of the network turns over during the 8 s run. Demand, depletion
// repair and hotspot drift follow the dynamics defaults. replaceEvery re-runs
// hub placement every that many seconds (0: placement at startup only).
func churnSpec(replaceEvery float64) splicer.Spec {
	return splicer.Spec{
		Seed:     7,
		Scheme:   "Splicer",
		Topology: splicer.TopologySpec{Type: "watts-strogatz", Nodes: 80},
		Workload: splicer.WorkloadSpec{Type: "synthetic", Rate: 80, Duration: 8, ZipfSkew: 0.8},
		Dynamics: &splicer.DynamicsSpec{ChurnRate: 2, ReplaceInterval: replaceEvery},
	}
}

func main() {
	run := func(replaceEvery float64) splicer.Result {
		res, err := churnSpec(replaceEvery).Run()
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	static := run(0)
	online := run(1)

	fmt.Println("workload: 8 s of heavy churn (nodes join/leave, channels open/close) under live demand")
	fmt.Printf("%-28s %10s %12s %12s\n", "placement", "TSR", "throughput", "delay")
	fmt.Printf("%-28s %9.2f%% %11.2f%% %10.3f s\n",
		"static (startup only)", 100*static.TSR, 100*static.NormalizedThroughput, static.MeanDelay)
	fmt.Printf("%-28s %9.2f%% %11.2f%% %10.3f s\n",
		"online (re-place every 1s)", 100*online.TSR, 100*online.NormalizedThroughput, online.MeanDelay)
	fmt.Println()
	if online.TSR > static.TSR {
		fmt.Println("online re-placement re-homed the orphaned clients and recovered the success ratio.")
	} else {
		fmt.Println("unexpected: online re-placement did not improve on static — check parameters")
	}
}

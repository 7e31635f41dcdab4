package pcn

import (
	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/routing"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// spiderPolicy is multi-path source routing with packetization: k paths
// directly between sender and recipient, TU splitting, window congestion
// control — but no capacity/imbalance price coordination (that is Splicer's
// addition) and the route computation runs on the sender's machine.
type spiderPolicy struct{ basePolicy }

func (spiderPolicy) UsesQueues() bool { return true }
func (spiderPolicy) SplitsTUs() bool  { return true }

func (spiderPolicy) Plan(n *Network, tx workload.Tx) ([]graph.Path, []Allocation, error) {
	key := RouteKey{Src: tx.Sender, Dst: tx.Recipient, Type: routing.EDW, K: n.cfg.NumPaths}
	paths, err := n.planRoutes(key, func() ([]graph.Path, error) {
		return routing.SelectPathsWith(n.PathFinder(), tx.Sender, tx.Recipient, n.cfg.NumPaths, routing.EDW)
	})
	if err != nil {
		return nil, nil, err
	}
	if len(paths) == 0 {
		return nil, nil, nil
	}
	allocs, err := splitAllocations(tx.Value, n.cfg.MinTU, n.cfg.MaxTU)
	if err != nil {
		return nil, nil, err
	}
	return paths, allocs, nil
}

// PrefetchRoutes: the whole Plan is a pure function of the routed topology
// (static capacities, hub assignments, config, endpoints), so a planning
// worker runs it for the route computations alone. Its widest-path search
// never reaches the label tier, so this holds under hub-label routing too.
func (p spiderPolicy) PrefetchRoutes(n *Network, tx workload.Tx) { _, _, _ = p.Plan(n, tx) }

func (spiderPolicy) PrefetchesLabelFree() bool { return true }

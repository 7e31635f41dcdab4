package pcn

import (
	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/routing"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// shortestPathPolicy is the naive single-shortest-path HTLC baseline (not in
// the paper's figures; used by tests and the deadlock example).
type shortestPathPolicy struct{ basePolicy }

func (shortestPathPolicy) Plan(n *Network, tx workload.Tx) ([]graph.Path, []Allocation, error) {
	key := RouteKey{Src: tx.Sender, Dst: tx.Recipient, Type: routing.KSP, K: 1}
	paths, err := n.planRoutes(key, func() ([]graph.Path, error) {
		p, ok := n.unitShortestPath(tx.Sender, tx.Recipient)
		if !ok {
			return nil, nil
		}
		return []graph.Path{p}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	if len(paths) == 0 {
		return nil, nil, nil
	}
	return paths, []Allocation{{PathIdx: 0, Value: tx.Value}}, nil
}

// PrefetchRoutes: the whole Plan is a pure function of the routed topology
// (static capacities, hub assignments, config, endpoints), so a planning
// worker runs it for the route computations alone. The one search is a
// label query under hub-label routing, so the pool stays off there.
func (p shortestPathPolicy) PrefetchRoutes(n *Network, tx workload.Tx) { _, _, _ = p.Plan(n, tx) }

func (shortestPathPolicy) PrefetchesLabelFree() bool { return false }

package pcn

import (
	"math"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/topology"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// a2lPolicy is the single-tumbler payment-channel-hub protocol: every
// payment routes atomically through one hub, whose cryptographic
// puzzle-promise exchange is serialized and epoch-aligned.
type a2lPolicy struct{ basePolicy }

// Setup elects the best-connected node as the tumbler, manages every client
// under it, reshapes to the star topology and capitalizes the hub.
func (a2lPolicy) Setup(n *Network) error {
	hub := topology.TopDegreeNodes(n.g, 1)[0]
	n.SetHubs([]graph.NodeID{hub})
	for i := 0; i < n.g.NumNodes(); i++ {
		n.SetManagingHub(graph.NodeID(i), hub)
	}
	n.ReshapeMultiStar()
	n.CapitalizeHubs()
	return nil
}

// ComputeOwner: the tumbler performs the per-payment cryptographic protocol.
// A departed tumbler (dynamic churn) is A2L's single point of failure: the
// sender burns the protocol delay locally before discovering there is no
// hub to route through.
func (a2lPolicy) ComputeOwner(n *Network, tx workload.Tx) (graph.NodeID, float64) {
	if len(n.hubs) == 0 {
		return tx.Sender, n.cfg.A2LCryptoDelay
	}
	return n.hubs[0], n.cfg.A2LCryptoDelay
}

// AlignDispatch: the tumbler's puzzle-promise protocol runs in epochs
// aligned to the update interval: payments wait for the next epoch boundary
// before the crypto exchange starts. This is why A2L's TSR is the most
// sensitive to the update time in Figs. 7(c)/8(c).
func (a2lPolicy) AlignDispatch(n *Network, free float64) float64 {
	tau := n.cfg.UpdateTau
	epoch := math.Ceil(free/tau) * tau
	if epoch > free {
		return epoch
	}
	return free
}

// Plan routes the whole payment through the single tumbler hub in one atomic
// piece, as the PCH protocol requires.
func (a2lPolicy) Plan(n *Network, tx workload.Tx) ([]graph.Path, []Allocation, error) {
	if len(n.hubs) == 0 {
		return nil, nil, nil // tumbler departed: no route for anyone
	}
	hub := n.hubs[0]
	key := RouteKey{Src: tx.Sender, Dst: tx.Recipient, Type: ComposedRoutes, K: 1}
	paths, err := n.planRoutes(key, func() ([]graph.Path, error) {
		// Unit-weight queries (UnitShortestPath is bit-identical to
		// ShortestPath with UnitWeight), so the hub→recipient leg is served
		// from the label tier when the override is on.
		if hub == tx.Sender || hub == tx.Recipient {
			if p, found := n.unitShortestPath(tx.Sender, tx.Recipient); found {
				return []graph.Path{p}, nil
			}
			return nil, nil
		}
		p1, ok1 := n.unitShortestPath(tx.Sender, hub)
		p2, ok2 := n.unitShortestPath(hub, tx.Recipient)
		if !ok1 || !ok2 {
			return nil, nil
		}
		return []graph.Path{concatPaths(p1, p2)}, nil
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
// worker runs it for the route computations alone.
func (p a2lPolicy) PrefetchRoutes(n *Network, tx workload.Tx) { _, _, _ = p.Plan(n, tx) }

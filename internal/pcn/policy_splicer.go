package pcn

import (
	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/routing"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// splicerPolicy is the paper's scheme: optimal PCH placement, the multi-star
// topology, hub-computed multi-path routing, TU packetization, and the
// price/window congestion controller.
type splicerPolicy struct{ basePolicy }

func (splicerPolicy) UsesQueues() bool { return true }
func (splicerPolicy) UsesPrices() bool { return true }
func (splicerPolicy) SplitsTUs() bool  { return true }

// Setup runs the placement pipeline (or accepts cfg.Hubs), assigns every
// client its Lemma-1 hub, reshapes to the Definition-1 multi-star topology
// and capitalizes the hubs.
func (splicerPolicy) Setup(n *Network) error {
	hubs := n.cfg.Hubs
	if len(hubs) == 0 {
		var err error
		hubs, err = n.placeHubs()
		if err != nil {
			return err
		}
	}
	n.SetHubs(hubs)
	n.assignClients()
	n.ReshapeMultiStar()
	n.CapitalizeHubs()
	return nil
}

// ComputeOwner: the managing hub's (powerful) machine computes routes. A
// sender without an assignment yet (a node that joined mid-run, before the
// next re-placement) self-computes.
func (splicerPolicy) ComputeOwner(n *Network, tx workload.Tx) (graph.NodeID, float64) {
	return n.managingHub(tx.Sender), n.cfg.HubComputeDelay
}

// Plan routes via the sender's and recipient's managing hubs: access segment
// s→hub(s), k hub-to-hub paths of the configured path type, access segment
// hub(r)→r. Demands split into Min/Max-TU bounded units whose paths the rate
// controller assigns dynamically.
//
// Both the composed per-pair path set and the raw hub-to-hub transit segment
// go through the RouteCache: every client pair managed by the same
// (hub, hub) combination shares one transit computation, which is where the
// path-selection cost concentrates on large multi-star networks.
func (splicerPolicy) Plan(n *Network, tx workload.Tx) ([]graph.Path, []Allocation, error) {
	cfg := n.cfg
	key := RouteKey{Src: tx.Sender, Dst: tx.Recipient, Type: ComposedRoutes, K: cfg.NumPaths}
	paths, err := n.planRoutes(key, func() ([]graph.Path, error) {
		hubS := n.managingHub(tx.Sender)
		hubR := n.managingHub(tx.Recipient)
		if hubS == hubR {
			// Same-hub clients: the hub computes k multi-paths directly
			// between its endpoints.
			return routing.SelectPathsWith(n.PathFinder(), tx.Sender, tx.Recipient, cfg.NumPaths, cfg.PathType)
		}
		if hubS == tx.Sender && hubR == tx.Recipient {
			return transitRoutes(n, hubS, hubR)
		}
		prefix, okP := n.accessPath(tx.Sender, hubS)
		suffix, okS := n.accessPath(hubR, tx.Recipient)
		if !okP || !okS {
			return nil, nil
		}
		middles, err := transitRoutes(n, hubS, hubR)
		if err != nil {
			return nil, err
		}
		var composed []graph.Path
		for _, mid := range middles {
			composed = append(composed, concatPaths(prefix, mid, suffix))
		}
		return composed, nil
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

// transitRoutes returns the k hub-to-hub paths of the configured path type.
// The transit segment is shared by every client pair managed by
// (hubS, hubR) — including payments between the hubs themselves — so it is
// cached once under its own key. It never consults the label tier.
func transitRoutes(n *Network, hubS, hubR graph.NodeID) ([]graph.Path, error) {
	k, pt := n.cfg.NumPaths, n.cfg.PathType
	return n.planRoutes(RouteKey{Src: hubS, Dst: hubR, Type: pt, K: k}, func() ([]graph.Path, error) {
		return routing.SelectPathsWith(n.PathFinder(), hubS, hubR, k, pt)
	})
}

// PrefetchRoutes: the whole Plan is a pure function of the routed topology
// (static capacities, hub assignments, config, endpoints), so under exact
// routing a planning worker runs it for the route computations alone. Under
// hub-label routing the access legs are label queries, so a worker runs
// only what needs none: the whole composed key when the pair shares a hub
// or both endpoints are hubs, the transit key otherwise. The committer then
// computes the access legs and finds the transit waiting in the memo.
func (p splicerPolicy) PrefetchRoutes(n *Network, tx workload.Tx) {
	hubS, hubR := n.managingHub(tx.Sender), n.managingHub(tx.Recipient)
	if n.cfg.RoutingOverride == RoutingHubLabels && hubS != hubR && (hubS != tx.Sender || hubR != tx.Recipient) {
		_, _ = transitRoutes(n, hubS, hubR)
		return
	}
	_, _, _ = p.Plan(n, tx)
}

func (splicerPolicy) PrefetchesLabelFree() bool { return true }

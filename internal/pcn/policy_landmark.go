package pcn

import (
	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/topology"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// landmarkPolicy routes through well-known landmark nodes: path_i =
// s→lm_i→r, splitting the value evenly across the landmarks reachable from
// both ends. The policy owns its elected landmark set.
type landmarkPolicy struct {
	basePolicy
	landmarks []graph.NodeID
	// tails holds one full unit tree per landmark and answers the
	// landmark→recipient tails by tree walk: every planned pair asks each
	// landmark for a tail, so k trees replace k searches per pair. The trees
	// build lazily and repair from the graph's shape journal like the
	// network label tier; a tree is the finder's own push/pop sequence run
	// to completion, so a walk returns the finder's path. nil under
	// RoutingHubLabels, where the network tier already holds these trees and
	// its Served/Builds counters (part of Result) must keep counting tails.
	tails *graph.HubLabels
}

func (p *landmarkPolicy) Setup(n *Network) error {
	p.landmarks = topology.TopDegreeNodes(n.g, n.cfg.NumPaths)
	// The landmark→recipient detour tails are landmark-rooted unit queries,
	// so the label tier can precompute them when the override is on.
	n.AddLabelRoots(p.landmarks)
	if n.cfg.RoutingOverride != RoutingHubLabels {
		p.tails = graph.NewHubLabels(n.g, n.PathFinder(), p.landmarks)
	}
	return nil
}

// tail returns the unit shortest path from landmark lm to the recipient.
func (p *landmarkPolicy) tail(n *Network, lm, to graph.NodeID) (graph.Path, bool) {
	if p.tails != nil {
		return p.tails.UnitShortestPath(lm, to)
	}
	return n.unitShortestPath(lm, to)
}

func (p *landmarkPolicy) Plan(n *Network, tx workload.Tx) ([]graph.Path, []Allocation, error) {
	// Landmark routes are capacity-independent, so repeat pairs hit the
	// shared route cache instead of recomputing the per-landmark detours.
	key := RouteKey{Src: tx.Sender, Dst: tx.Recipient, Type: ComposedRoutes, K: n.cfg.NumPaths}
	paths, err := n.planRoutes(key, func() ([]graph.Path, error) {
		// One multi-target Dijkstra from the sender covers every
		// sender-side detour head (and the direct path for a landmark that
		// is itself an endpoint); only the landmark→recipient tails need
		// their own traversals. Paths are identical to the former
		// per-landmark single-target queries.
		heads := make([]graph.NodeID, len(p.landmarks))
		for i, lm := range p.landmarks {
			if lm == tx.Sender || lm == tx.Recipient {
				heads[i] = tx.Recipient
			} else {
				heads[i] = lm
			}
		}
		headPaths := n.unitShortestPaths(tx.Sender, heads)
		var out []graph.Path
		for i, lm := range p.landmarks {
			p1 := headPaths[i]
			if lm == tx.Sender || lm == tx.Recipient {
				if p1.Len() > 0 || tx.Sender == tx.Recipient {
					out = append(out, p1)
				}
				continue
			}
			if p1.Len() == 0 {
				continue
			}
			p2, ok2 := p.tail(n, lm, tx.Recipient)
			if ok2 {
				out = append(out, concatPaths(p1, p2))
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, nil, err
	}
	if len(paths) == 0 {
		return nil, nil, nil
	}
	share := tx.Value / float64(len(paths))
	allocs := make([]Allocation, len(paths))
	for i := range paths {
		allocs[i] = Allocation{PathIdx: i, Value: share}
	}
	return paths, allocs, nil
}
